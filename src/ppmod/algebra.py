"""Finite-dimensional algebras: path algebras of bound quivers modulo paths.

An algebra is given by its basis paths, each (label, source, target,
arrow word), the paths with the empty word being the vertex idempotents;
two basis paths multiply to their concatenation when it is a basis path,
and to zero otherwise (Assem, Simson and Skowronski, *Elements of the
Representation Theory of Associative Algebras* 1, CUP 2006, ch. II).  An
element is a coordinate vector (tuple) over the basis.  monomial_algebra,
the one constructor, certifies the laws on the path list (see its
docstring); the opposite algebra is the one on the reversed paths.

The paths of positive length span a nilpotent ideal J with A/J =
k^(vertices), so an element is a unit exactly when each of its
idempotent coefficients is nonzero, and its inverse is a finite Neumann
series in J, with no linear solve (the proof is in
FDAlgebra.inverse_el).
"""

from __future__ import annotations

from .fields import Field
from .linalg import Matrix, block_diagonal


class FDAlgebra:
    """Algebra on the basis paths b_0..b_{dim-1}: b_i b_j is b_k for
    k = products[i][j], and 0 where that is None.  Built by
    monomial_algebra, or as an opposite.  generators: every arrow (path
    of length 1) and every vertex idempotent but the last listed, which
    is the unit minus the others.  With the unit they generate A, each
    longer path being the product of its arrows (monomial_algebra lists
    every prefix and suffix of a path), so a map intertwining their
    actions intertwines every element's."""

    def __init__(self, field: Field, paths, products, name: str):
        self.field = field
        self.paths = paths
        self.products = products
        self.labels = tuple(p[0] for p in paths)
        self.dim = len(paths)
        self.name = name
        self.unit = tuple(field.zero() if w else field.one()
                          for _, _, _, w in paths)
        self._op: FDAlgebra | None = None
        last = max((k for k, p in enumerate(paths) if not p[3]), default=None)
        self.generators = tuple(k for k, (_, _, _, w) in enumerate(paths)
                                if len(w) == 1 or not w and k != last)
        self._idempotents = tuple(k for k, p in enumerate(paths) if not p[3])
        self._inverses: dict = {}
        self._reduced: dict = {}
        self._products: dict = {}
        zero = self.zero_el()
        basis = [self.basis_el(k) for k in range(self.dim)]
        # row i of rho(b_j) is b_i b_j
        self._rho = tuple(Matrix.from_rows(field, [
            zero if row[j] is None else basis[row[j]] for row in products])
            for j in range(self.dim))
        self._free_actions: dict[int, tuple[Matrix, ...]] = {1: self._rho}

    # -- element arithmetic (coordinate vectors) -----------------------

    def zero_el(self):
        return (self.field.zero(),) * self.dim

    def basis_el(self, i: int):
        z = self.field.zero()
        return tuple(self.field.one() if k == i else z for k in range(self.dim))

    def scalar_el(self, c):
        return self.smul_el(c, self.unit)

    def reduced_el(self, u):
        """u with each coordinate brought into the field by Field.of,
        reduced once per distinct u and kept."""
        try:
            return self._reduced[u]
        except (KeyError, TypeError):  # new, or a list
            u = tuple(u)
        if u not in self._reduced:
            self._reduced[u] = tuple(map(self.field.of, u))
        return self._reduced[u]

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
        """u v: u_i v_j added at the product of b_i and b_j, computed once
        per distinct (u, v) and kept with the algebra (so A and A.op keep
        their own)."""
        try:
            hit = self._products.get((u, v))
        except TypeError:  # a list
            u, v = tuple(u), tuple(v)
            hit = self._products.get((u, v))
        if hit is None:
            acc = [0] * self.dim
            for a, row in zip(u, self.products):
                if a:
                    for b, k in zip(v, row):
                        if b and k is not None:
                            acc[k] += a * b
            hit = self._products[u, v] = tuple(map(self.field.of, acc))
        return hit

    def is_unit_el(self, u) -> bool:
        """Whether u is a unit: whether every idempotent coefficient of u
        is nonzero (see inverse_el)."""
        of = self.field.of
        for k in self._idempotents:  # a loop: a generator costs 3-4x more
            if not of(u[k]):
                return False
        return True

    def inverse_el(self, u):
        """u^-1, or None when u is no unit, kept per element.

        The arrow ideal J, spanned by the paths of positive length, is a
        two-sided ideal.  It is nilpotent: a basis path of length L has
        L + 1 listed prefixes, so L < dim, and a product of dim paths of
        positive length is 0.  A/J is k^(vertices), with the idempotents
        e_v as its coordinates (Assem, Simson and Skowronski, *Elements*
        1, ch. II).  Write u = s + n with s = sum_v u_v e_v and n in J.
        If some u_v is 0, the image of u in A/J is no unit, and so
        neither is u.  Otherwise s^-1 = sum_v u_v^-1 e_v, x = -s^-1 n
        lies in J, so x^k = 0 for some k <= dim, and u = s (1 - x) has
        the two-sided inverse (1 + x + x^2 + ...) s^-1, summed up to the
        first zero term x^k s^-1 (each term is x times the one before).
        No linear system is solved.  Each new inverse is certified by
        u u^-1 = 1, a right inverse in a finite-dimensional algebra being
        two-sided."""
        u = tuple(u)
        if u in self._inverses:
            return self._inverses[u]
        inv = None
        if self.is_unit_el(u):
            f = self.field
            of, p = f.of, f.p
            s_inv, n = list(self.zero_el()), list(u)
            for k in self._idempotents:
                c, n[k] = of(u[k]), f.zero()
                s_inv[k] = 1 / c if p is None else pow(c, p - 2, p)
            inv = term = tuple(s_inv)
            x = self.neg_el(self.mul_el(inv, tuple(n)))
            for _ in range(self.dim):
                term = self.mul_el(x, term)
                if not any(term):
                    break
                inv = self.add_el(inv, term)
            if self.mul_el(u, inv) != self.unit:
                raise AssertionError(f"{inv} is no inverse of {u} in "
                                     f"{self.name}")
        self._inverses[u] = inv
        return inv

    def el_from_label(self, label: str):
        if label in ("1", "one", "unit"):
            return self.unit
        if label not in self.labels:
            valid = ", ".join(dict.fromkeys(("1",) + self.labels))
            raise ValueError(f"unknown ring element {label!r} of {self.name}"
                             f" (valid: {valid})")
        return self.basis_el(self.labels.index(label))

    # -- structure ------------------------------------------------------

    @property
    def op(self) -> "FDAlgebra":
        """The opposite algebra, on the reversed paths of the opposite
        quiver: b_i b_j there is b_j b_i here.  op.op is self."""
        if self._op is None:
            self._op = FDAlgebra(
                self.field, tuple((label, t, s, w[::-1])
                                  for label, s, t, w in self.paths),
                tuple(zip(*self.products)), self.name + "^op")
            self._op._op = self
        return self._op

    def free_action(self, rank: int) -> tuple[Matrix, ...]:
        """The right action on A^rank: rho(b_j) on each of rank diagonal
        blocks, built once per rank and kept with the algebra.  Rank 1 is
        the right regular representation rho itself, whose row i of
        rho(b_j) is b_i b_j (row convention)."""
        action = self._free_actions.get(rank)
        if action is None:
            action = self._free_actions[rank] = tuple(
                block_diagonal(self.field, [reg] * rank) for reg in self._rho)
        return action

    def __repr__(self):
        return f"FDAlgebra({self.name}, dim={self.dim})"


def monomial_algebra(field: Field, paths, name: str) -> FDAlgebra:
    """A path algebra modulo paths, on the basis of the listed paths, each
    (label, source, target, arrow word), kept on the algebra as `paths`;
    the paths with the empty word are the vertex idempotents, whose sum is
    the unit.  Two basis paths multiply to their concatenation when it is
    listed, and to zero otherwise.

    The list is refused unless no (source, word) is listed twice, each
    idempotent runs from its vertex to itself, and each other path
    w: s -> t ends at t both as w[:-1] from s followed by its last arrow
    and as its first arrow followed by w[1:].  By induction every prefix
    and every suffix of a listed path is then listed, the idempotents at
    its ends included, which certifies the laws: (pq)r and p(qr) are both
    pqr when pqr is listed and both 0 when it is not, and e_s p = p = p e_t
    for a path p: s -> t, the other idempotents giving 0."""
    paths = tuple((label, s, t, tuple(w)) for label, s, t, w in paths)
    index = {}
    for k, (label, s, _, w) in enumerate(paths):
        if index.setdefault((s, w), k) != k:
            raise ValueError(f"the path {label} is listed twice in {name}")
    target = {key: paths[k][2] for key, k in index.items()}

    def end(s, u, v):  # where u from s followed by v ends, or None
        return target.get((target.get((s, u)), v))

    for label, s, t, w in paths:
        if not (end(s, w[:-1], w[-1:]) == end(s, w[:1], w[1:]) == t
                if w else s == t):
            raise ValueError(f"a subpath of {label} is not a basis path of "
                             f"{name}")
    products = tuple(tuple(index.get((s, w + w2)) if t == s2 else None
                           for _, s2, _, w2 in paths) for _, s, t, w in paths)
    return FDAlgebra(field, paths, products, name)


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
