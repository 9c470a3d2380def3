"""Finite-dimensional associative unital algebras by structure constants.

An algebra element is a coordinate vector (tuple) over the basis.
Associativity and the unit law are verified on all basis triples at
construction, so downstream code can rely on them.
"""

from __future__ import annotations

import itertools

from .fields import Field
from .linalg import Matrix


class FDAlgebra:
    """Algebra with basis b_0..b_{dim-1}, products b_i b_j = sum c[i][j][k] b_k."""

    _serial = itertools.count()

    def __init__(self, field: Field, labels, mul_table, unit, name: str = "",
                 check: bool = True):
        self.field = field
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.table = tuple(tuple(tuple(v) for v in row) for row in mul_table)
        self.unit = tuple(unit)
        self.name = name or f"algebra{next(FDAlgebra._serial)}"
        self._op: FDAlgebra | None = None
        if len(self.table) != self.dim or any(len(r) != self.dim for r in self.table):
            raise ValueError("structure constant table has wrong shape")
        if any(len(v) != self.dim for r in self.table for v in r):
            raise ValueError("structure constant vectors have wrong length")
        if check:
            self._check_axioms()

    # -- element arithmetic (coordinate vectors) -----------------------

    def zero_el(self):
        return (self.field.zero(),) * self.dim

    def basis_el(self, i: int):
        z = self.field.zero()
        return tuple(self.field.one() if k == i else z for k in range(self.dim))

    def scalar_el(self, c):
        return tuple(self.field.mul(c, u) for u in self.unit)

    def add_el(self, u, v):
        f = self.field
        return tuple(f.add(a, b) for a, b in zip(u, v))

    def neg_el(self, u):
        f = self.field
        return tuple(f.neg(a) for a in u)

    def smul_el(self, c, u):
        f = self.field
        return tuple(f.mul(c, a) for a in u)

    def mul_el(self, u, v):
        f = self.field
        z = f.zero()
        out = [z] * self.dim
        for i, a in enumerate(u):
            if a == z:
                continue
            row = self.table[i]
            for j, b in enumerate(v):
                if b == z:
                    continue
                ab = f.mul(a, b)
                cv = row[j]
                for k, c in enumerate(cv):
                    if c != z:
                        out[k] = f.add(out[k], f.mul(ab, c))
        return tuple(out)

    def el_from_label(self, label: str):
        if label in ("1", "one", "unit"):
            return self.unit
        if label not in self.labels:
            valid = ", ".join(dict.fromkeys(("1",) + self.labels))
            raise ValueError(f"unknown ring element {label!r} of {self.name}"
                             f" (valid: {valid})")
        return self.basis_el(self.labels.index(label))

    # -- structure ------------------------------------------------------

    def _check_axioms(self):
        n = self.dim
        for i in range(n):
            bi = self.basis_el(i)
            if self.mul_el(self.unit, bi) != bi or self.mul_el(bi, self.unit) != bi:
                raise ValueError(f"unit law fails on basis element {self.labels[i]}")
        for i in range(n):
            bi = self.basis_el(i)
            for j in range(n):
                bj = self.basis_el(j)
                ij = self.mul_el(bi, bj)
                for k in range(n):
                    bk = self.basis_el(k)
                    if self.mul_el(ij, bk) != self.mul_el(bi, self.mul_el(bj, bk)):
                        raise ValueError(
                            f"associativity fails on ({self.labels[i]},"
                            f"{self.labels[j]},{self.labels[k]})")

    @property
    def op(self) -> "FDAlgebra":
        """The opposite algebra; op.op is self."""
        if self._op is None:
            table = tuple(tuple(self.table[j][i] for j in range(self.dim))
                          for i in range(self.dim))
            o = FDAlgebra(self.field, self.labels, table, self.unit,
                          name=self.name + "^op", check=False)
            o._op = self
            self._op = o
        return self._op

    def right_regular_action(self) -> list[Matrix]:
        """rho(b_j) with (u * rho(b_j))_k = sum_i u_i c[i][j][k] (row convention)."""
        out = []
        for j in range(self.dim):
            out.append(Matrix.from_rows(
                self.field, [list(self.table[i][j]) for i in range(self.dim)]))
        return out

    def __repr__(self):
        return f"FDAlgebra({self.name}, dim={self.dim})"


def truncated_dvr(N: int, field: Field) -> FDAlgebra:
    """k[x]/(x^N): the valuation-ring model at finite horizon N >= 1.

    Basis 1, x, ..., x^{N-1}; the indecomposable modules are the quotients
    of length 1..N.
    """
    if N < 1:
        raise ValueError("horizon N must be >= 1")
    labels = ["1"] + [f"x^{i}" if i > 1 else "x" for i in range(1, N)]
    z = field.zero()
    table = []
    for i in range(N):
        row = []
        for j in range(N):
            v = [z] * N
            if i + j < N:
                v[i + j] = field.one()
            row.append(tuple(v))
        table.append(tuple(row))
    unit = [field.one()] + [z] * (N - 1)
    return FDAlgebra(field, labels, table, unit, name=f"k[x]/(x^{N})")


# -- path algebras with relations ----------------------------------------


class QuiverPresentation:
    """A quiver plus k-linear relations between parallel paths.

    Arrows are (source, target, label) with vertices 0..nv-1.  A relation is
    a list of (coefficient, path) where a path is a tuple of arrow indices,
    composable left to right, and all paths in one relation are parallel.
    The quotient must be finite-dimensional at path_length_cap.
    """

    def __init__(self, nv: int, arrows, relations=(), path_length_cap: int = 6):
        self.nv = nv
        self.arrows = [tuple(a) for a in arrows]
        self.relations = [list(r) for r in relations]
        self.cap = path_length_cap
        for s, t, _ in self.arrows:
            if not (0 <= s < nv and 0 <= t < nv):
                raise ValueError("arrow endpoint out of range")
        for rel in self.relations:
            ends = {self.path_ends(p) for _, p in rel}
            if len(ends) != 1:
                raise ValueError("malformed relation: paths are not parallel")

    def path_ends(self, path):
        if not path:
            raise ValueError("relations must involve paths of length >= 1")
        s = self.arrows[path[0]][0]
        t = self.arrows[path[-1]][1]
        for a, b in zip(path, path[1:]):
            if self.arrows[a][1] != self.arrows[b][0]:
                raise ValueError("non-composable path in relation")
        return (s, t)


def algebra_from_quiver(q: QuiverPresentation, field: Field) -> FDAlgebra:
    """Quotient path algebra with basis the surviving path residues.

    Paths (keyed by source vertex and arrow word) are ordered by length then
    lexicographically; the span of all u.rel.v products is eliminated and
    the non-pivot paths become the basis.  Raises if any path of length
    >= path_length_cap survives (not finite-dimensional at the cap).
    """
    cap = q.cap
    work = 2 * cap

    # enumerate paths as (source, target, word) up to the working length
    by_len = [[(v, v, ()) for v in range(q.nv)]]
    for ln in range(1, work + 1):
        cur = []
        for s, t, w in by_len[ln - 1]:
            for ai, (a, b, _) in enumerate(q.arrows):
                if a == t:
                    cur.append((s, b, w + (ai,)))
        by_len.append(cur)
    paths = [p for group in by_len for p in group]
    index = {(p[0], p[2]): i for i, p in enumerate(paths)}
    npaths = len(paths)

    def concat(p1, p2):
        # p1 then p2; valid when target(p1) == source(p2)
        return (p1[0], p2[1], p1[2] + p2[2])

    # span of { u * rel * v } inside the path space, total length <= work
    ideal_rows = []
    all_paths = paths
    for rel in q.relations:
        rel_src, rel_tgt = q.path_ends(rel[0][1])
        rel_len = max(len(p) for _, p in rel)
        for u in all_paths:
            if u[1] != rel_src:
                continue
            for v in all_paths:
                if v[0] != rel_tgt:
                    continue
                if len(u[2]) + rel_len + len(v[2]) > work:
                    continue
                row = [field.zero()] * npaths
                for c, p in rel:
                    w = u[2] + tuple(p) + v[2]
                    i = index[(u[0], w)]
                    cc = field.of(c) if isinstance(c, int) else c
                    row[i] = field.add(row[i], cc)
                ideal_rows.append(row)
    ideal = (Matrix.from_rows(field, ideal_rows) if ideal_rows
             else Matrix(field, 0, npaths, []))
    red, pivots = ideal.rref()
    pivset = set(pivots)
    basis_paths = [paths[i] for i in range(npaths) if i not in pivset]

    if any(len(p[2]) >= cap for p in basis_paths):
        raise ValueError("quotient not finite-dimensional at path_length_cap")

    piv_of = {p: i for i, p in enumerate(pivots)}

    def reduce_vec(vec):
        vec = list(vec)
        for p, i in piv_of.items():
            if vec[p] != field.zero():
                c = vec[p]
                row = red.data[i]
                vec = [field.sub(x, field.mul(c, y)) for x, y in zip(vec, row)]
        return vec

    basis_index = {(p[0], p[2]): i for i, p in enumerate(basis_paths)}
    nb = len(basis_paths)

    def to_basis_coords(vec):
        out = [field.zero()] * nb
        for i, c in enumerate(vec):
            if c != field.zero():
                key = (paths[i][0], paths[i][2])
                out[basis_index[key]] = c
        return tuple(out)

    zero_vec = (field.zero(),) * nb
    table = []
    for pi in basis_paths:
        row = []
        for pj in basis_paths:
            if pi[1] != pj[0]:
                row.append(zero_vec)
                continue
            w = concat(pi, pj)
            vec = [field.zero()] * npaths
            vec[index[(w[0], w[2])]] = field.one()
            row.append(to_basis_coords(reduce_vec(vec)))
        table.append(tuple(row))

    unit = [field.zero()] * nb
    for i, (s, t, w) in enumerate(basis_paths):
        if w == ():
            unit[i] = field.one()

    def plabel(sp, tp, w):
        if w == ():
            return f"e{sp + 1}"
        return "*".join(q.arrows[a][2] for a in w)

    labels = [plabel(*bp) for bp in basis_paths]
    return FDAlgebra(field, labels, table, unit, name=f"path_algebra({q.nv}v)")


def kronecker_algebra(field: Field) -> FDAlgebra:
    """Path algebra of the double-arrow quiver 1 => 2 (basis e1, e2, a, b)."""
    q = QuiverPresentation(2, [(0, 1, "a"), (0, 1, "b")], path_length_cap=3)
    alg = algebra_from_quiver(q, field)
    alg.name = "kronecker"
    return alg
