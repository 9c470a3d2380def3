"""The pp-formula calculus: evaluation, lattice operations, duality,
free realizations, implication and pp-type generators.

A right formula in n free and l bound variables with m conditions is
"exists y: (x, y) H = 0" for an (n+l) x m matrix H over the algebra.  A
left formula is "exists y: H (x; y) = 0" with H of shape m x (n+l); it is
*stored* transposed, i.e. also as (n+l) x m with rows indexed by variables,
and it evaluates on left modules (= right modules over the opposite
algebra).  With this storage a single code path serves both sides: block
assembly for sum/meet/duality never multiplies two algebra entries, so the
opposite multiplication never enters.

Implication phi -> psi is decided on the free realization (C, c) of phi:
psi(C) is not computed, one membership test asks whether some bound
tuple completes c to a solution of psi's system on C.  Equivalence of
formulas is always decided semantically, by implication in both
directions; nothing is ever compared syntactically.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .algebra import FDAlgebra
from .linalg import Matrix, Subspace, block, projected_kernel
from .modules import (Module, Presentation, presentation_from_relations,
                      presentation_of)

RIGHT = "right"
LEFT = "left"

_counter = itertools.count()
PRESENTATION_CACHE_SIZE = 256


class PpFormula:
    """Immutable pp formula; entries of hmat are algebra coordinate vectors."""

    __slots__ = ("algebra", "side", "n", "l", "hmat", "serial",
                 "_realization", "_eval_cache")

    def __init__(self, algebra: FDAlgebra, side: str, n: int, l: int, hmat):
        if side not in (RIGHT, LEFT):
            raise ValueError("side must be 'right' or 'left'")
        self.algebra = algebra
        self.side = side
        self.n = n
        self.l = l
        self.hmat = tuple(tuple(tuple(e) for e in row) for row in hmat)
        if len(self.hmat) != n + l:
            raise ValueError("formula matrix must have n+l variable rows")
        widths = {len(r) for r in self.hmat}
        if len(widths) > 1:
            raise ValueError("ragged formula matrix")
        for row in self.hmat:
            for e in row:
                if len(e) != algebra.dim:
                    raise ValueError("entry is not an algebra coordinate vector")
        self.serial = next(_counter)
        self._realization = None
        self._eval_cache: dict = {}

    @property
    def m(self) -> int:
        return len(self.hmat[0]) if self.hmat else 0

    @property
    def effective_algebra(self) -> FDAlgebra:
        """The algebra its evaluation modules live over (A, or A.op for left)."""
        return self.algebra if self.side == RIGHT else self.algebra.op

    def __repr__(self):
        return f"PpFormula({self.side}, n={self.n}, l={self.l}, m={self.m})"

    # -- evaluation ---------------------------------------------------

    def evaluate(self, module: Module) -> Subspace:
        """phi(M) as a subspace of k^{n.dim(M)} (x-tuples, coordinates
        concatenated component by component)."""
        if module.algebra is not self.effective_algebra:
            raise ValueError("module is on the wrong side or algebra")
        hit = self._eval_cache.get(module.serial)
        if hit is not None:
            return hit
        k = self.n * module.dim
        result = Subspace(k, projected_kernel(self._system(module), k))
        self._eval_cache[module.serial] = result
        return result

    def _system(self, module: Module) -> Matrix:
        """The matrix S with phi(M) the x-part of {(x, y) : (x, y) S = 0}:
        band (v, e) is the action of hmat[v][e] on M."""
        d, nvars = module.dim, self.n + self.l
        return block(self.algebra.field, [d] * nvars, [d] * self.m,
                     {(v, e): module.act(self.hmat[v][e])
                      for v in range(nvars) for e in range(self.m)})

    # -- free realization and implication ------------------------------

    def free_realization(self) -> "FreeRealization":
        """A finitely presented module and tuple whose pp-type this formula
        generates: the quotient of the free module on all n+l variables by
        the columns of the formula matrix."""
        if self._realization is not None:
            return self._realization
        alg = self.effective_algebra
        relations = []
        for e in range(self.m):
            relations.append(tuple(self.hmat[v][e] for v in range(self.n + self.l)))
        pres = presentation_from_relations(alg, self.n + self.l, relations)
        tup = tuple(pres.generator(i) for i in range(self.n))
        fr = FreeRealization(pres.module, tup)
        self._realization = fr
        return fr

    def implies(self, other: "PpFormula") -> bool:
        """phi <= psi in the pp lattice: whether the tuple x of the free
        realization C of phi lies in psi(C).  With S_x and S_y the x- and
        y-bands of psi's system on C, that is whether some y has
        x S_x = -y S_y, one membership test in the row space of S_y (with
        no bound variable, whether x S_x is zero)."""
        _check_compatible(self, other)
        if other.m == 0:
            return True
        fr = self.free_realization()
        system = other._system(fr.module)
        k = other.n * fr.module.dim
        x = Matrix.from_rows(system.field, [fr.tuple_vector()])
        xs = x * system.take_rows(range(k))
        ys = Subspace.from_matrix(system.cols,
                                  system.take_rows(range(k, system.rows)))
        return ys.contains_vector(xs.row(0))

    def equivalent(self, other: "PpFormula") -> bool:
        return self.implies(other) and other.implies(self)


@dataclass(frozen=True)
class FreeRealization:
    module: Module
    tuple: tuple

    def tuple_vector(self):
        out = []
        for comp in self.tuple:
            out.extend(comp)
        return tuple(out)


@dataclass(frozen=True)
class PpPair:
    """phi / psi with psi <= phi (so psi(M) <= phi(M) everywhere)."""

    upper: PpFormula
    lower: PpFormula

    def __post_init__(self):
        _check_compatible(self.upper, self.lower)
        if not self.lower.implies(self.upper):
            raise ValueError("lower formula does not imply upper formula")


def _check_compatible(a: PpFormula, b: PpFormula):
    if a.algebra is not b.algebra:
        raise ValueError("formulas over different algebras")
    if a.side != b.side:
        raise ValueError("formulas on different sides")
    if a.n != b.n:
        raise ValueError("formulas with different free arities")


# -- basic constructors -----------------------------------------------------


def tautology(alg: FDAlgebra) -> PpFormula:
    """x1 = x1: the right formula with no condition."""
    return PpFormula(alg, RIGHT, 1, 0, [[]])


def bottom(alg: FDAlgebra) -> PpFormula:
    """x1 = 0 (right)."""
    return PpFormula(alg, RIGHT, 1, 0, [[alg.unit]])


def divisibility(alg: FDAlgebra, a, side: str = RIGHT) -> PpFormula:
    """a | x: exists y with x = y a (right) / x = a y (left)."""
    a = tuple(a)
    return PpFormula(alg, side, 1, 1, [[alg.unit], [alg.neg_el(a)]])


def annihilator(alg: FDAlgebra, a, side: str = RIGHT) -> PpFormula:
    """x a = 0 (right) / a x = 0 (left)."""
    a = tuple(a)
    return PpFormula(alg, side, 1, 0, [[a]])


# -- lattice operations ------------------------------------------------------


def pp_sum(phi: PpFormula, psi: PpFormula) -> PpFormula:
    """The join: (phi + psi)(x) = exists u, v: x = u + v, phi(u), psi(v)."""
    _check_compatible(phi, psi)
    alg, side, n = phi.algebra, phi.side, phi.n
    z, u = alg.zero_el(), alg.unit
    nu = alg.neg_el(u)
    lphi, lpsi, mphi, mpsi = phi.l, psi.l, phi.m, psi.m
    nvars = n + (2 * n + lphi + lpsi)
    ncols = n + mphi + mpsi
    rows = [[z] * ncols for _ in range(nvars)]
    # variable layout: x (n) | u (n) | v (n) | y_phi | y_psi
    for i in range(n):
        rows[i][i] = u                       # x_i
        rows[n + i][i] = nu                  # -u_i
        rows[2 * n + i][i] = nu              # -v_i
    for v in range(n):
        for e in range(mphi):
            rows[n + v][n + e] = phi.hmat[v][e]
        for e in range(mpsi):
            rows[2 * n + v][n + mphi + e] = psi.hmat[v][e]
    for v in range(lphi):
        for e in range(mphi):
            rows[3 * n + v][n + e] = phi.hmat[n + v][e]
    for v in range(lpsi):
        for e in range(mpsi):
            rows[3 * n + lphi + v][n + mphi + e] = psi.hmat[n + v][e]
    return PpFormula(alg, side, n, 2 * n + lphi + lpsi, rows)


def pp_meet(phi: PpFormula, psi: PpFormula) -> PpFormula:
    """The meet: phi(x) and psi(x), bound variables concatenated."""
    _check_compatible(phi, psi)
    alg, side, n = phi.algebra, phi.side, phi.n
    z = alg.zero_el()
    lphi, lpsi, mphi, mpsi = phi.l, psi.l, phi.m, psi.m
    nvars = n + lphi + lpsi
    ncols = mphi + mpsi
    rows = [[z] * ncols for _ in range(nvars)]
    for v in range(n):
        for e in range(mphi):
            rows[v][e] = phi.hmat[v][e]
        for e in range(mpsi):
            rows[v][mphi + e] = psi.hmat[v][e]
    for v in range(lphi):
        for e in range(mphi):
            rows[n + v][e] = phi.hmat[n + v][e]
    for v in range(lpsi):
        for e in range(mpsi):
            rows[n + lphi + v][mphi + e] = psi.hmat[n + v][e]
    return PpFormula(alg, side, n, lphi + lpsi, rows)


# -- elementary duality -------------------------------------------------------


def dual(phi: PpFormula) -> PpFormula:
    """The matrix-level anti-isomorphism between the right and left pp
    lattices.  In stored (variables-as-rows) coordinates the same block
    construction serves both directions:

        D [H' over x; H'' over y]  =  [I 0 ; H'^T H''^T]

    with n free rows kept, m new bound rows, and n+l conditions."""
    alg, n, l, m = phi.algebra, phi.n, phi.l, phi.m
    z, u = alg.zero_el(), alg.unit
    rows = [[z] * (n + l) for _ in range(n + m)]
    for i in range(n):
        rows[i][i] = u
    for j in range(m):
        for v in range(n + l):
            rows[n + j][v] = phi.hmat[v][j]
    return PpFormula(alg, LEFT if phi.side == RIGHT else RIGHT, n, m, rows)


# -- pp-type generators --------------------------------------------------------


def pp_type_generator(pres: Presentation, tup) -> PpFormula:
    """The generator of the pp-type of a tuple in a presented right module:
    exists y (x = y A and y H = 0), where A expresses the tuple over the
    generators and H is the relation matrix."""
    alg = pres.algebra
    n = len(tup)
    s = pres.ngens
    exprs = []
    for comp in tup:
        coeffs = pres.express(comp)
        if coeffs is None:
            raise ValueError("tuple is not expressible over the generators")
        exprs.append(coeffs)
    z = alg.zero_el()
    u = alg.unit
    mrel = len(pres.relations)
    ncols = n + mrel
    rows = [[z] * ncols for _ in range(n + s)]
    for i in range(n):
        rows[i][i] = u
    for g in range(s):
        for i in range(n):
            rows[n + g][i] = alg.neg_el(exprs[i][g])
        for e, rel in enumerate(pres.relations):
            rows[n + g][n + e] = rel[g]
    return PpFormula(alg, RIGHT, n, s, rows)


@functools.lru_cache(maxsize=PRESENTATION_CACHE_SIZE)
def _cached_presentation(module: Module) -> Presentation:
    return presentation_of(module)


def pp_type_generator_of_element(module: Module, vec) -> PpFormula:
    """Generator of the pp-type of a single element of a right module (the
    presentations of the last PRESENTATION_CACHE_SIZE modules are kept)."""
    pres = _cached_presentation(module)
    return pp_type_generator(pres, (tuple(vec),))
