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
"""

from __future__ import annotations

import itertools

from .algebra import FDAlgebra
from .linalg import (Matrix, Subspace, combination, span_elements,
                     subspace_leq, subspace_sum)

_module_serial = itertools.count()


class Module:
    """Right module: one action matrix per algebra basis element."""

    __slots__ = ("algebra", "dim", "action", "label", "serial", "_act_cache")

    def __init__(self, algebra: FDAlgebra, dim: int, action, label: str = "",
                 check: bool = True):
        self.algebra = algebra
        self.dim = dim
        self.action = tuple(action)
        self.label = label
        self.serial = next(_module_serial)
        self._act_cache: dict = {}
        if len(self.action) != algebra.dim:
            raise ValueError("need one action matrix per algebra basis element")
        for m in self.action:
            if m.rows != dim or m.cols != dim:
                raise ValueError("action matrix has wrong shape")
        if check:
            self._check_laws()

    def _check_laws(self):
        alg = self.algebra
        f = alg.field
        ident = Matrix.identity(f, self.dim)
        if self.act(alg.unit) != ident:
            raise ValueError("unit does not act as identity")
        for i in range(alg.dim):
            for j in range(alg.dim):
                lhs = self.action[i] * self.action[j]
                if lhs != self.act(alg.table[i][j]):
                    raise ValueError(
                        f"action violates structure constants at "
                        f"({alg.labels[i]}, {alg.labels[j]})")

    def act(self, el) -> Matrix:
        """Action matrix of an algebra element (coordinate vector)."""
        el = tuple(el)
        hit = self._act_cache.get(el)
        if hit is not None:
            return hit
        out = combination(el, self.action)
        self._act_cache[el] = out
        return out

    def apply(self, vec, el):
        """vec . el for a row vector vec."""
        m = Matrix.from_rows(self.algebra.field, [list(vec)]) * self.act(el)
        return tuple(m.data[0])

    def elements(self):
        """All module elements as row vectors (finite fields only)."""
        f = self.algebra.field
        units = Matrix.identity(f, self.dim).data
        rows = [Matrix(f, 1, self.dim, [u]) for u in units]
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
        return all(a * self.mat == self.mat * b
                   for a, b in zip(self.source.action, self.target.action))

    def __call__(self, vec):
        m = Matrix.from_rows(self.mat.field, [list(vec)]) * self.mat
        return tuple(m.data[0])

    def then(self, other: "ModuleMap") -> "ModuleMap":
        """self followed by other."""
        if other.source is not self.target and other.source.dim != self.target.dim:
            raise ValueError("maps not composable")
        return ModuleMap(self.source, other.target, self.mat * other.mat,
                         check=False)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.source, self.target, self.mat + other.mat, check=False)

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.source, self.target, self.mat - other.mat, check=False)

    def scale(self, c) -> "ModuleMap":
        return ModuleMap(self.source, self.target, self.mat.scale(c), check=False)

    def rank(self) -> int:
        return self.mat.rank()

    def is_injective(self) -> bool:
        return self.rank() == self.source.dim

    def is_surjective(self) -> bool:
        return self.rank() == self.target.dim

    def is_iso(self) -> bool:
        return self.source.dim == self.target.dim and self.rank() == self.source.dim

    def is_zero(self) -> bool:
        return self.mat.is_zero()

    def __repr__(self):
        return f"ModuleMap({self.source.dim}->{self.target.dim})"


def identity_map(m: Module) -> ModuleMap:
    return ModuleMap(m, m, Matrix.identity(m.algebra.field, m.dim), check=False)


def zero_map(m: Module, n: Module) -> ModuleMap:
    return ModuleMap(m, n, Matrix.zero(m.algebra.field, m.dim, n.dim), check=False)


def zero_module(algebra: FDAlgebra) -> Module:
    z = Matrix(algebra.field, 0, 0, [])
    return Module(algebra, 0, [z] * algebra.dim, label="0", check=False)


def free_module(algebra: FDAlgebra, rank: int, label: str = "") -> Module:
    """R^rank with basis e_i (x) b_t, coordinates blocked by generator."""
    reg = algebra.right_regular_action()
    f = algebra.field
    d = algebra.dim * rank
    action = []
    for j in range(algebra.dim):
        m = Matrix.zero(f, d, d)
        data = [list(r) for r in m.data]
        for blk in range(rank):
            for a in range(algebra.dim):
                for b in range(algebra.dim):
                    data[blk * algebra.dim + a][blk * algebra.dim + b] = reg[j].data[a][b]
        action.append(Matrix(f, d, d, data))
    return Module(algebra, d, action, label=label or f"{algebra.name}^{rank}",
                  check=False)


def regular_module(algebra: FDAlgebra) -> Module:
    return free_module(algebra, 1, label=algebra.name)


# -- hom spaces ------------------------------------------------------------


def hom_space(m: Module, n: Module) -> list[ModuleMap]:
    """Canonical (echelon) basis of Hom(M, N)."""
    if m.algebra is not n.algebra:
        raise ValueError("modules over different algebras")
    f = m.algebra.field
    dm, dn = m.dim, n.dim
    if dm == 0 or dn == 0:
        return []
    nunk = dm * dn
    if f.is_f2:
        from .linalg import right_kernel_packed_f2
        ker = right_kernel_packed_f2(_hom_rows_f2(m, n), nunk, f)
        maps = []
        for v in ker.data:
            mat = Matrix(f, dm, dn, [v[i * dn:(i + 1) * dn] for i in range(dm)])
            maps.append(ModuleMap(m, n, mat, check=False))
        return maps
    else:
        data = []
        for bi in range(m.algebra.dim):
            am, an = m.action[bi], n.action[bi]
            for r in range(dm):
                for c in range(dn):
                    row = [f.zero()] * nunk
                    for s in range(dm):
                        if am.data[r][s] != f.zero():
                            row[s * dn + c] = f.add(row[s * dn + c], am.data[r][s])
                    for t in range(dn):
                        if an.data[t][c] != f.zero():
                            row[r * dn + t] = f.sub(row[r * dn + t], an.data[t][c])
                    data.append(row)
        a = Matrix(f, len(data), nunk, data)
    ker = a.right_kernel()
    maps = []
    for v in ker.data:
        mat = Matrix(f, dm, dn, [v[i * dn:(i + 1) * dn] for i in range(dm)])
        maps.append(ModuleMap(m, n, mat, check=False))
    return maps


def _hom_rows_f2(m: Module, n: Module) -> list[int]:
    """Packed constraint rows for the intertwining system over GF(2)."""
    dm, dn = m.dim, n.dim
    rows = []
    for bi in range(m.algebra.dim):
        am, an = m.action[bi], n.action[bi]
        spread = []
        for r in range(dm):
            acc = 0
            for s in range(dm):
                if am.data[r][s]:
                    acc |= 1 << (s * dn)
            spread.append(acc)
        colmask = []
        for c in range(dn):
            acc = 0
            for t in range(dn):
                if an.data[t][c]:
                    acc |= 1 << t
            colmask.append(acc)
        for r in range(dm):
            base = spread[r]
            shift = r * dn
            for c in range(dn):
                rows.append((base << c) ^ (colmask[c] << shift))
    return rows


def hom_dim(m: Module, n: Module) -> int:
    return len(hom_space(m, n))


# -- duals -----------------------------------------------------------------


def k_dual(m: Module) -> Module:
    """Standard dual Hom(-, k): transpose the actions, flip to the opposite
    algebra (right modules over A.op are left A-modules)."""
    return Module(m.algebra.op, m.dim, [a.transpose() for a in m.action],
                  label=(m.label + "*") if m.label else "", check=False)


# -- direct sums, submodules, quotients -------------------------------------


def direct_sum(mods: list[Module], label: str = "") -> tuple[Module, list[ModuleMap], list[ModuleMap]]:
    """Block sum with injections and projections."""
    if not mods:
        raise ValueError("empty direct sum needs an algebra; use zero_module")
    alg = mods[0].algebra
    f = alg.field
    if any(m.algebra is not alg for m in mods):
        raise ValueError("summands over different algebras")
    total = sum(m.dim for m in mods)
    action = []
    for j in range(alg.dim):
        data = [[f.zero()] * total for _ in range(total)]
        off = 0
        for m in mods:
            a = m.action[j]
            for r in range(m.dim):
                for c in range(m.dim):
                    data[off + r][off + c] = a.data[r][c]
            off += m.dim
        action.append(Matrix(f, total, total, data))
    s = Module(alg, total, action,
               label=label or "+".join(m.label or "?" for m in mods), check=False)
    injs, projs = [], []
    off = 0
    for m in mods:
        inj = Matrix.zero(f, m.dim, total)
        d = [list(r) for r in inj.data]
        for i in range(m.dim):
            d[i][off + i] = f.one()
        injs.append(ModuleMap(m, s, Matrix(f, m.dim, total, d), check=False))
        proj = Matrix.zero(f, total, m.dim)
        d = [list(r) for r in proj.data]
        for i in range(m.dim):
            d[off + i][i] = f.one()
        projs.append(ModuleMap(s, m, Matrix(f, total, m.dim, d), check=False))
        off += m.dim
    return s, injs, projs


def is_invariant(m: Module, s: Subspace) -> bool:
    return all(subspace_leq(Subspace.from_matrix(m.dim, s.basis * a), s)
               for a in m.action)


def submodule(m: Module, s: Subspace, label: str = "",
              check: bool = True) -> tuple[Module, ModuleMap]:
    """The submodule on an invariant subspace, with its inclusion."""
    if check and not is_invariant(m, s):
        raise ValueError("subspace is not invariant under the action")
    f = m.algebra.field
    b = s.basis
    pivots = [next(j for j, x in enumerate(row) if x != f.zero()) for row in b.data]
    action = []
    for a in m.action:
        img = b * a
        # coefficients over the RREF basis are read off at the pivot columns
        coeffs = img.take_cols(pivots)
        action.append(coeffs)
    u = Module(m.algebra, s.dim, action, label=label, check=False)
    return u, ModuleMap(u, m, b, check=False)


def quotient_module(m: Module, s: Subspace, label: str = "",
                    check: bool = True) -> tuple[Module, ModuleMap]:
    """The quotient by an invariant subspace, with its projection."""
    if check and not is_invariant(m, s):
        raise ValueError("subspace is not invariant under the action")
    f = m.algebra.field
    d = m.dim
    b = s.basis
    pivots = [next(j for j, x in enumerate(row) if x != f.zero()) for row in b.data]
    nonpivots = [j for j in range(d) if j not in pivots]
    qd = len(nonpivots)
    # reduction mod s followed by selecting non-pivot coordinates
    proj_rows = []
    for t in range(d):
        v = [f.zero()] * d
        v[t] = f.one()
        for p, row in zip(pivots, b.data):
            if v[p] != f.zero():
                c = v[p]
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        proj_rows.append([v[j] for j in nonpivots])
    proj = Matrix(f, d, qd, proj_rows)
    sect_rows = []
    for j in nonpivots:
        v = [f.zero()] * d
        v[j] = f.one()
        sect_rows.append(v)
    sect = Matrix(f, qd, d, sect_rows)
    action = [sect * a * proj for a in m.action]
    q = Module(m.algebra, qd, action, label=label, check=False)
    return q, ModuleMap(m, q, proj, check=False)


def image_subspace(f: ModuleMap) -> Subspace:
    return Subspace.from_matrix(f.target.dim, f.mat.row_space())


def kernel_subspace(f: ModuleMap) -> Subspace:
    return Subspace(f.source.dim, f.mat.left_kernel())


def cokernel(f: ModuleMap) -> tuple[Module, ModuleMap]:
    return quotient_module(f.target, image_subspace(f), check=False)


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
    basis = hom_space(m, n)
    iso = next((h for h in basis if h.is_iso()), None)
    if iso is not None or not basis:
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
    """M = coker(R^m -> R^s): generators, relation matrix over the algebra,
    and the flattened quotient module."""

    def __init__(self, algebra: FDAlgebra, ngens: int, relations,
                 module: Module, proj: ModuleMap, free: Module):
        self.algebra = algebra
        self.ngens = ngens
        self.relations = relations  # list of relation vectors in A^ngens
        self.module = module
        self.proj = proj  # free -> module
        self.free = free

    def generator(self, i: int):
        """Image in the module of the i-th free generator."""
        alg = self.algebra
        f = alg.field
        v = [f.zero()] * self.free.dim
        unit = alg.unit
        for t, c in enumerate(unit):
            v[i * alg.dim + t] = c
        return self.proj(v)

    def generators(self):
        return [self.generator(i) for i in range(self.ngens)]

    def express(self, vec):
        """Algebra coefficients r_1..r_s with sum g_i . r_i = vec, or None."""
        alg = self.algebra
        f = alg.field
        rows = []
        for i in range(self.ngens):
            for t in range(alg.dim):
                w = [f.zero()] * self.free.dim
                w[i * alg.dim + t] = f.one()
                rows.append(list(self.proj(w)))
        a = Matrix(f, len(rows), self.module.dim, rows)
        sol = a.solve_left(Matrix.from_rows(f, [list(vec)]))
        if sol is None:
            return None
        coeffs = sol.data[0]
        return [tuple(coeffs[i * alg.dim:(i + 1) * alg.dim])
                for i in range(self.ngens)]

    def relation_matrix(self):
        """Relations as an ngens x m matrix over the algebra."""
        return [[rel[i] for rel in self.relations] for i in range(self.ngens)]


def _module_span(m: Module, vectors) -> Subspace:
    """Smallest action-invariant subspace containing the vectors."""
    f = m.algebra.field
    s = Subspace.zero(f, m.dim) if m.dim else Subspace.zero(f, 0)
    frontier = [tuple(v) for v in vectors]
    while frontier:
        mat = Matrix.from_rows(f, [list(v) for v in frontier]) if frontier else None
        new = subspace_sum(s, Subspace.from_matrix(m.dim, mat))
        if new.dim == s.dim:
            break
        s = new
        frontier = []
        for row in s.basis.data:
            for a in m.action:
                w = tuple((Matrix.from_rows(f, [list(row)]) * a).data[0])
                if not s.contains_vector(w):
                    frontier.append(w)
    return s


def module_generators(m: Module) -> list[tuple]:
    """A small generating set found greedily over the standard basis."""
    f = m.algebra.field
    gens: list[tuple] = []
    span = Subspace.zero(f, m.dim)
    for i in range(m.dim):
        v = tuple(f.one() if j == i else f.zero() for j in range(m.dim))
        if not span.contains_vector(v):
            gens.append(v)
            span = _module_span(m, [b for b in span.basis.data] + [v])
    return gens


def presentation_from_relations(algebra: FDAlgebra, ngens: int,
                                relation_vectors) -> Presentation:
    """Quotient of A^ngens by the submodule generated by the given vectors
    of A^ngens (each a tuple of algebra elements)."""
    free = free_module(algebra, ngens)
    f = algebra.field
    flat = []
    for rel in relation_vectors:
        v = []
        for comp in rel:
            v.extend(comp)
        flat.append(v)
    sub = _module_span(free, flat) if flat else Subspace.zero(f, free.dim)
    mod, proj = quotient_module(free, sub, check=False)
    return Presentation(algebra, ngens, [tuple(r) for r in relation_vectors],
                        mod, proj, free)


def presentation_of(m: Module) -> Presentation:
    """A presentation of an arbitrary module: greedy generators, then module
    generators of the kernel of the free cover."""
    alg = m.algebra
    f = alg.field
    gens = module_generators(m)
    s = len(gens)
    free = free_module(alg, s)
    # free cover matrix: e_i (x) b_t -> g_i . b_t
    rows = []
    for g in gens:
        gm = Matrix.from_rows(f, [list(g)])
        for t in range(alg.dim):
            rows.append(list((gm * m.action[t]).data[0]))
    cover = ModuleMap(free, m, Matrix(f, free.dim, m.dim, rows), check=False)
    ker = kernel_subspace(cover)
    # module generators of the kernel
    rel_vecs = []
    span = Subspace.zero(f, free.dim)
    for row in ker.basis.data:
        if not span.contains_vector(row):
            rel_vecs.append(tuple(row))
            span = _module_span(free, [r for r in span.basis.data] + [list(row)])
    relations = []
    for v in rel_vecs:
        relations.append(tuple(tuple(v[i * alg.dim:(i + 1) * alg.dim])
                               for i in range(s)))
    # the cover itself presents m: its kernel is generated by the relations
    return Presentation(alg, s, relations, m, cover, free)
