"""Finite-dimensional associative unital algebras by structure constants.

An algebra element is a coordinate vector (tuple) over the basis.
Associativity and the unit law are verified on all basis triples at
construction, so downstream code can rely on them: the right regular
representation rho is built once, and rho(b_i) rho(b_j) = rho(b_i b_j)
holds in row k exactly when (b_k b_i) b_j = b_k (b_i b_j).

Each concrete algebra (k[x]/(x^N), the Kronecker algebra, the tower rings)
is a path algebra modulo paths, built from its basis paths by
monomial_algebra, the one constructor that writes a table.
"""

from __future__ import annotations

import itertools

from .fields import Field
from .linalg import Matrix, Subspace, block_diagonal, combination


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
        self.paths = None  # the basis paths, when monomial_algebra built it
        self._op: FDAlgebra | None = None
        self._generators: tuple[int, ...] | None = None
        self._inverses: dict = {}
        if len(self.table) != self.dim or any(len(r) != self.dim for r in self.table):
            raise ValueError("structure constant table has wrong shape")
        if any(len(v) != self.dim for r in self.table for v in r):
            raise ValueError("structure constant vectors have wrong length")
        self._rho = tuple(
            Matrix.from_rows(field, [self.table[i][j] for i in range(self.dim)])
            for j in range(self.dim))
        self._free_actions: dict[int, tuple[Matrix, ...]] = {1: self._rho}
        if check:
            self._check_axioms()

    # -- element arithmetic (coordinate vectors) -----------------------

    def zero_el(self):
        return (self.field.zero(),) * self.dim

    def basis_el(self, i: int):
        z = self.field.zero()
        return tuple(self.field.one() if k == i else z for k in range(self.dim))

    def scalar_el(self, c):
        return self.smul_el(c, self.unit)

    def add_el(self, u, v):
        of = self.field.of
        return tuple(of(a + b) for a, b in zip(u, v))

    def neg_el(self, u):
        of = self.field.of
        return tuple(of(-a) for a in u)

    def smul_el(self, c, u):
        of = self.field.of
        return tuple(of(c * a) for a in u)

    def mul_el(self, u, v):
        """u v = sum of u_i v_j c[i][j], read from the structure constants."""
        acc = [0] * self.dim
        for a, row in zip(u, self.table):
            if a:
                for b, c in zip(v, row):
                    if b:
                        ab = a * b
                        for k, x in enumerate(c):
                            if x:
                                acc[k] += ab * x
        of = self.field.of
        return tuple(of(x) for x in acc)

    def inverse_el(self, u):
        """u^-1 = unit rho(u)^-1, or None when rho(u) is singular, kept per
        element.  In a finite-dimensional algebra a left inverse v (v u =
        1) makes rho(v) rho(u) = rho(1) = I, so the unit lies in the row
        space of rho(u) exactly when u is a unit."""
        u = tuple(u)
        if u not in self._inverses:
            v = combination(u, self._rho).solve_left(
                Matrix.from_rows(self.field, [self.unit]))
            self._inverses[u] = None if v is None else v.data[0]
        return self._inverses[u]

    def el_from_label(self, label: str):
        if label in ("1", "one", "unit"):
            return self.unit
        if label not in self.labels:
            valid = ", ".join(dict.fromkeys(("1",) + self.labels))
            raise ValueError(f"unknown ring element {label!r} of {self.name}"
                             f" (valid: {valid})")
        return self.basis_el(self.labels.index(label))

    # -- structure ------------------------------------------------------

    def law_failure(self, action):
        """Where one matrix per basis element fails the laws of a right
        module, or None if it satisfies them: (None, k) when row k of
        action(1) differs from the identity's, else ((i, j), k) for the
        first i, j with action[i] action[j] != action(b_i b_j), first
        differing in row k."""
        k = _first_differing_row(combination(self.unit, action),
                                 Matrix.identity(self.field, action[0].rows))
        if k is not None:
            return None, k
        for i in range(self.dim):
            for j in range(self.dim):
                k = _first_differing_row(action[i] * action[j],
                                         combination(self.table[i][j], action))
                if k is not None:
                    return (i, j), k
        return None

    def _check_axioms(self):
        """The left unit law row by row, then the laws of rho: the right
        unit law, and associativity on every triple (b_k, b_i, b_j)."""
        one = Matrix.from_rows(self.field, [self.unit])
        for j, r in enumerate(self._rho):
            if (one * r).data[0] != self.basis_el(j):
                raise ValueError(
                    f"unit law fails on basis element {self.labels[j]}")
        fail = self.law_failure(self._rho)
        if fail is None:
            return
        pair, k = fail
        if pair is None:
            raise ValueError(f"unit law fails on basis element {self.labels[k]}")
        i, j = pair
        raise ValueError(f"associativity fails on ({self.labels[k]},"
                         f"{self.labels[i]},{self.labels[j]})")

    @property
    def op(self) -> "FDAlgebra":
        """The opposite algebra; op.op is self.  Its paths are the reversed
        paths, of the opposite quiver."""
        if self._op is None:
            table = tuple(tuple(self.table[j][i] for j in range(self.dim))
                          for i in range(self.dim))
            o = FDAlgebra(self.field, self.labels, table, self.unit,
                          name=self.name + "^op", check=False)
            if self.paths is not None:
                o.paths = tuple((label, t, s, w[::-1])
                                for label, s, t, w in self.paths)
            o._op = self
            self._op = o
        return self._op

    @property
    def generators(self) -> tuple[int, ...]:
        """Basis indices whose elements generate A as a unital algebra,
        chosen greedily once: b_i is kept when it lies outside the
        subalgebra that the unit and the elements kept before it generate.

        A linear map between modules that intertwines the actions of the
        kept elements intertwines the action of every element: the
        elements it intertwines form a unital subalgebra.  That
        subalgebra is spanned by the unit times the words in the kept
        elements, and the span is recomputed from the unit alone, so the
        check that it is all of A is a certificate (it fails on a table
        whose unit is not a left unit, for one)."""
        if self._generators is None:
            kept: list[int] = []
            span = Subspace.from_matrix(
                self.dim, Matrix.from_rows(self.field, [self.unit]))
            for i in range(self.dim):
                if not span.contains_vector(self.basis_el(i)):
                    kept.append(i)
                    span = self._words_span(span, kept)
            if span.dim != self.dim:
                raise ValueError(f"the generators of {self.name} span a "
                                 f"subalgebra of dimension {span.dim}, "
                                 f"not {self.dim}")
            self._generators = tuple(kept)
        return self._generators

    def _words_span(self, span: Subspace, gens) -> Subspace:
        """The smallest subspace containing span that right multiplication
        by each of the basis elements gens maps into itself: one
        elimination per round, until a round adds nothing."""
        while True:
            stacked = span.basis
            for g in gens:
                stacked = stacked.vstack(span.basis * self._rho[g])
            grown = Subspace.from_matrix(self.dim, stacked)
            if grown.dim == span.dim:
                return span
            span = grown

    def free_action(self, rank: int) -> tuple[Matrix, ...]:
        """The right action on A^rank: rho(b_j) on each of rank diagonal
        blocks, built once per rank and kept with the algebra.  Rank 1 is
        the right regular representation rho itself, with
        (u * rho(b_j))_k = sum_i u_i c[i][j][k] (row convention)."""
        action = self._free_actions.get(rank)
        if action is None:
            action = self._free_actions[rank] = tuple(
                block_diagonal(self.field, [reg] * rank) for reg in self._rho)
        return action

    def __repr__(self):
        return f"FDAlgebra({self.name}, dim={self.dim})"


def _first_differing_row(a: Matrix, b: Matrix) -> int | None:
    if a == b:
        return None
    return next(k for k, (x, y) in enumerate(zip(a.data, b.data)) if x != y)


def monomial_algebra(field: Field, paths, name: str) -> FDAlgebra:
    """A path algebra modulo paths, on the basis of the listed paths, each
    (label, source, target, arrow word); the paths with the empty word are
    the vertex idempotents.  Two basis paths multiply to their
    concatenation when it is listed, and to zero otherwise; the unit is
    the sum of the idempotents.  The list must be closed under subpaths:
    a path that is not a listed path followed by a listed arrow is refused
    here, and a missing suffix breaks a law that FDAlgebra checks.  The
    paths are kept on the algebra, as `paths`."""
    paths = tuple((label, s, t, tuple(w)) for label, s, t, w in paths)
    target = {(s, w): t for _, s, t, w in paths}
    for label, s, t, w in paths:
        if w and target.get((target.get((s, w[:-1])), w[-1:])) != t:
            raise ValueError(f"a subpath of {label} is not a basis path of "
                             f"{name}")
    index = {(s, t, w): k for k, (_, s, t, w) in enumerate(paths)}
    z, one = field.zero(), field.one()

    def el(k):  # basis path k, or zero for None
        return tuple(one if i == k else z for i in range(len(paths)))

    table = [[el(index.get((s, t2, w + w2)) if t == s2 else None)
              for _, s2, t2, w2 in paths] for _, s, t, w in paths]
    unit = tuple(z if w else one for _, _, _, w in paths)
    alg = FDAlgebra(field, [p[0] for p in paths], table, unit, name=name)
    alg.paths = paths
    return alg


def dvr_paths(N: int) -> tuple:
    """The basis paths 1, x, ..., x^{N-1} of k[x]/(x^N), at vertex 0."""
    if N < 1:
        raise ValueError("horizon N must be >= 1")
    return tuple((("1", "x")[i] if i < 2 else f"x^{i}", 0, 0, ("x",) * i)
                 for i in range(N))


# the double-arrow quiver a, b: 1 => 2
KRONECKER_PATHS = (("e1", 1, 1, ()), ("e2", 2, 2, ()), ("a", 1, 2, ("a",)),
                   ("b", 1, 2, ("b",)))


def truncated_dvr(N: int, field: Field) -> FDAlgebra:
    """k[x]/(x^N): the valuation-ring model at finite horizon N >= 1.

    Basis 1, x, ..., x^{N-1}; the indecomposable modules are the quotients
    of length 1..N.
    """
    return monomial_algebra(field, dvr_paths(N), f"k[x]/(x^{N})")


def kronecker_algebra(field: Field) -> FDAlgebra:
    """Path algebra of the double-arrow quiver a, b: 1 => 2, on the basis
    e1, e2, a, b."""
    return monomial_algebra(field, KRONECKER_PATHS, "kronecker")
