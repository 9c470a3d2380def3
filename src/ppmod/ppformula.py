"""The pp-formula calculus: evaluation, lattice operations, duality,
free realizations, implication and pp-type generators.

A formula in n free and l bound variables with m conditions is
"exists y: (x, y) H = 0" for an (n+l) x m matrix H over its algebra,
evaluated on right modules over that algebra.  It is stored as n, l, m
and its cells, the nonzero entries of H keyed (variable, condition) in
field normal form.  It has no side: the left formula
"exists y: H' (x; y) = 0" over A is the formula over A.op with matrix
H'^T, evaluated on left A-modules, the right A.op-modules (Prest,
*Purity, Spectra and Localisation*, CUP 2009, section 1.3); the side is
syntax only (see ppsyntax).  A.op has A's basis, so block assembly for
sum, meet and the dual (over A.op for phi over A) moves entries and
never multiplies two of them.

Before a system is solved, every bound variable with a unit coefficient
is substituted away (`PpFormula.reduced`, the rule Prest uses to reduce
pp formulas up to equivalence, op. cit. section 1.1).  If y has the unit
u in condition e, that condition reads y = -sum_{v != y} w_v h[v][e] u^-1
(products in the formula's algebra), so y and condition e are dropped
and every other condition e' becomes h[v][e'] - h[v][e] u^-1 h[y][e'],
computed as h[v][e] (u^-1 h[y][e']) with u^-1 h[y][e'] formed once.
On every module the map (x, y, rest) -> (x, rest) is then a bijection
from the solutions of the old system onto those of the new one, with
inverse given by that formula for y, so the x-part, the value, is the
same; free variables are never substituted.  Each sum adds n rows
x = u + v with unit coefficients on u and v, and each dual turns them
into bound variables with unit coefficients, so most derived formulas
shrink.

Sum, meet, dual and the reduction build their results' cells from their
parts', which are canonical already, through `PpFormula._of` without
checking them again; the rows constructor and `from_cells` check the
sizes and every entry, reduce it and drop zeros, since they take outside
input.  Evaluation gives an absent cell no block of its system, and the
reduction skips a product that is zero.

Implication phi -> psi is decided on the free realization (C, c) of the
reduced phi: phi <= psi iff c lies in psi(C) (Prest, *Purity, Spectra
and Localisation*, CUP 2009, section 1.2), a membership test in the value
that evaluation computes and caches.  A formula equivalent to phi has a
free realization of the same pp-type, so reducing first changes no
verdict.  Formulas that share their reduced formula r (see below) are
both equivalent to r, so phi <= psi holds by reflexivity and is returned
without a realization; that shared object is the one syntactic
comparison.  Every other implication is decided semantically, and
equivalence is implication in both directions.  The stored cells, the
printed formula and `free_realization` are those of the formula as
built.

Values are shared by content.  `reduced` looks its result up by
(algebra, n, l, m, set of cells), the algebra by identity, so every
formula whose reduction has that content gets one reduced object, and
with it one free realization and one cache of values; `evaluate` on any
other formula returns its reduced formula's value.  The table holds its
entries weakly and a reduced formula refers to nothing that refers back
to it, so an entry dies with the last formula that reduces to it, and
the work done does not depend on when the garbage collector runs.
pp-type generators stay out of it.  The table memoizes a function of
the content alone: a shared reduced formula is reflexivity, and every
other implication evaluates psi on a realization and tests membership.

A pp-type generator (Prest, op. cit., section 1.2), the formula generated
by a tuple of a finitely presented module, keeps that module and tuple
as its free realization, and the tuple itself.  It is evaluated through
Hom on the realization and is its own reduced formula, so its value, its
implications and `reduced` read no cells.  Its l, m and cells, which
need a presentation of the module and one solve per component, are
built on the first read of any of them (by printing, sum, meet and
dual); the probes and suites, which only evaluate and compare
generators, never read them.  The shape of the tuple is checked when
the generator is built.
"""

from __future__ import annotations

import weakref
from itertools import islice
from typing import NamedTuple

from .algebra import FDAlgebra
from .linalg import Matrix, Subspace, block, projected_kernel, vectorized
from .modules import (Module, _module_span, free_module, hom_space,
                      presentation_of, quotient_module)

# the reduced formula of each content (algebra, n, l, m, cells), held
# weakly: an entry lives exactly as long as some formula refers to its value
_REDUCED: "weakref.WeakValueDictionary[tuple, PpFormula]" = \
    weakref.WeakValueDictionary()
# the _reduced slot of a formula that is its own reduced formula; a
# sentinel rather than the formula itself, so that no formula is a cycle
_OWN = object()


class PpFormula:
    """Immutable pp formula: n free and l bound variables, m conditions,
    and cells, its nonzero entries keyed (variable, condition), each an
    algebra coordinate vector in its field's normal form."""

    __slots__ = ("algebra", "n", "l", "m", "cells", "_realization",
                 "_by_hom", "_eval_cache", "_reduced", "_tuple",
                 "__weakref__")

    def __init__(self, algebra: FDAlgebra, n: int, rows):
        """The formula whose entry (v, e) is rows[v][e], free v first."""
        rows = tuple(map(tuple, rows))
        if len(rows) < n:
            raise ValueError(f"formula matrix has {len(rows)} variable "
                             f"rows, fewer than the n={n} free variables")
        if len(set(map(len, rows))) > 1:
            raise ValueError("ragged formula matrix")
        l, m = len(rows) - n, len(rows[0]) if rows else 0
        self._set(algebra, n, l, m, _checked_cells(algebra, n, l, m, {
            (v, e): x for v, row in enumerate(rows)
            for e, x in enumerate(row)}))

    def __getattr__(self, name):
        # reached only for an unset slot: the sizes and cells of a pp-type
        # generator before their first read, built as pp_type_generator
        # says (the free cover is onto, so every component is expressible)
        if name not in ("cells", "l", "m"):
            raise AttributeError(name)
        pres = presentation_of(self._realization.module)
        alg, n = self.algebra, self.n
        cells = {(i, i): alg.unit for i in range(n)}
        for i, comp in enumerate(self._tuple):
            cells.update({(n + g, i): alg.neg_el(c)
                          for g, c in enumerate(pres.express(comp))})
        for e, rel in enumerate(pres.relations):
            cells.update({(n + g, n + e): r for g, r in enumerate(rel)})
        self.l, self.m = pres.ngens, n + len(pres.relations)
        self.cells = _checked_cells(alg, n, self.l, self.m, cells)
        return getattr(self, name)

    @staticmethod
    def from_cells(algebra: FDAlgebra, n: int, l: int, m: int,
                   cells) -> "PpFormula":
        """The formula whose entry (v, e), variable v and condition e, is
        cells[(v, e)]; every other entry is zero."""
        return PpFormula._of(algebra, n, l, m,
                             _checked_cells(algebra, n, l, m, cells))

    @staticmethod
    def _of(algebra: FDAlgebra, n: int, l: int, m: int,
            cells: dict) -> "PpFormula":
        """The formula with these sizes and cells, which must be nonzero
        reduced entries inside them: nothing is checked, so only formulas
        derived from others are built here."""
        phi = object.__new__(PpFormula)
        phi._set(algebra, n, l, m, cells)
        return phi

    def _set(self, algebra, n, l, m, cells):
        self.algebra, self.n, self.l, self.m = algebra, n, l, m
        self.cells = cells
        self._realization, self._by_hom = None, False
        self._eval_cache, self._reduced = {}, None

    def __repr__(self):
        return (f"PpFormula({self.algebra.name}, n={self.n}, l={self.l}, "
                f"m={self.m})")

    # -- evaluation ---------------------------------------------------

    def evaluate(self, module: Module) -> Subspace:
        """phi(M) as a subspace of k^{n.dim(M)} (x-tuples, coordinates
        concatenated component by component).

        A pp-type generator, built with its free realization (C, c), is
        evaluated through Hom:
        phi(M) = {f(c) : f in Hom(C, M)} for every module M (Prest,
        *Purity, Spectra and Localisation*, CUP 2009, section 1.2), the
        row space of the images of c under a basis of Hom(C, M).  Every
        other formula is evaluated by eliminating the system of its
        reduced formula on M, and the value is kept on that reduced
        formula, which every formula of the same reduced content shares
        (see the module docstring)."""
        if module.algebra is not self.algebra:
            raise ValueError("module over another algebra than the formula")
        r = self if self._reduced is _OWN else self.reduced()
        hit = r._eval_cache.get(module.serial)
        if hit is not None:
            return hit
        k = r.n * module.dim
        if r._by_hom:
            fr = r._realization
            # the tuple as n rows of C; its image under f is rows * F,
            # read row-major as one vector of length k
            rows = fr.row.reshape(r.n, fr.module.dim)
            images = [rows * h.mat for h in hom_space(fr.module, module)]
            result = Subspace.from_matrix(
                vectorized(r.algebra.field, images, k))
        else:
            # phi(M) is the x-part of {(x, y) : (x, y) S = 0}, where band
            # (v, e) of S is the action of cell (v, e) on M; block leaves
            # the band of an absent cell zero
            d = module.dim
            system = block(r.algebra.field, [d] * (r.n + r.l), [d] * r.m,
                           {c: module.act(x) for c, x in r.cells.items()})
            result = Subspace(projected_kernel(system, k))
        r._eval_cache[module.serial] = result
        return result

    def reduced(self) -> "PpFormula":
        """The same formula with every bound variable that has a unit
        coefficient substituted away by the rule in the module docstring:
        the first bound variable with a unit entry, at its first unit
        condition, until none is left; free variables are kept.  Computed
        once per formula, and shared by content: formulas whose
        reductions are equal get the same object, held in a weak table
        (see the module docstring).  A pp-type generator is its own
        reduced formula and stays out of the table."""
        r = self._reduced
        if r is _OWN:
            return self
        if r is None:
            r = _unit_eliminated(self)
            key = (self.algebra, r.n, r.l, r.m, frozenset(r.cells.items()))
            r = _REDUCED.setdefault(key, r)
            if r._reduced is None:
                r._reduced = _OWN
            if r is not self:
                self._reduced = r
        return r

    # -- free realization and implication ------------------------------

    def free_realization(self) -> "FreeRealization":
        """A finitely presented module and tuple whose pp-type this formula
        generates: a pp-type generator's own, else the quotient C
        of the free module on all n+l variables by the columns of the
        formula matrix, and the images of the first n free generators."""
        if self._realization is None:
            alg, d, nvars = self.algebra, self.algebra.dim, self.n + self.l
            free = free_module(alg, nvars)
            # row e is condition e's column, a vector of A^(n+l)
            rels = [[alg.field.zero()] * (nvars * d) for _ in range(self.m)]
            for (v, e), x in self.cells.items():
                rels[e][v * d:(v + 1) * d] = x
            module, proj = quotient_module(free, _module_span(free, rels))
            # x_i is the image of e_i (x) 1: the unit times block i of the
            # projection's rows
            unit = Matrix.from_rows(alg.field, [alg.unit])
            row = block(alg.field, [1], [module.dim] * self.n, {
                (0, i): unit * proj.mat.take_rows(range(i * d, (i + 1) * d))
                for i in range(self.n)})
            self._realization = FreeRealization(module, row)
        return self._realization

    def implies(self, other: "PpFormula") -> bool:
        """phi <= psi in the pp lattice.  When phi and psi share their
        reduced formula r, both are equivalent to r, so phi <= psi by
        reflexivity.  Otherwise: whether the tuple of the free
        realization C of phi lies in psi(C), the value psi.evaluate
        computes and keeps.  C is the free realization of the reduced
        formula, which is equivalent to phi and so realizes the same
        pp-type."""
        _check_compatible(self, other)
        r = self.reduced()
        if other.reduced() is r:
            return True
        fr = r.free_realization()
        return other.evaluate(fr.module).contains_vector(fr.row.data[0])

    def equivalent(self, other: "PpFormula") -> bool:
        return self.implies(other) and other.implies(self)


def _checked_cells(algebra: FDAlgebra, n: int, l: int, m: int,
                   cells) -> dict:
    """cells as a formula stores them, each entry reduced and the zero
    ones dropped, after checking the sizes, that every cell lies inside
    them and that every entry is an algebra coordinate vector."""
    _check_arity(n)
    for name, size in (("bound arity l", l), ("condition count m", m)):
        if size < 0:
            raise ValueError(f"{name}={size} is negative")
    el, out = algebra.reduced_el, {}
    for (v, e), x in cells.items():
        if not (0 <= v < n + l and 0 <= e < m):
            raise ValueError("cell outside the formula matrix")
        x = el(x)
        if len(x) != algebra.dim:
            raise ValueError("entry is not an algebra coordinate vector")
        if any(x):
            out[v, e] = x
    return out


def _unit_eliminated(phi: PpFormula) -> PpFormula:
    """phi with its bound variables of unit coefficients substituted away
    (see PpFormula.reduced); phi itself when there is none.  The cells
    are kept by variable, under their conditions' indices in phi until
    the survivors are renumbered at the end; each pivot is the least
    bound cell (y, e) with a unit entry."""
    alg, n = phi.algebra, phi.n
    of, zero = alg.field.of, alg.zero_el()
    rows = {v: {} for v in range(n + phi.l)}
    for (v, e), x in phi.cells.items():
        rows[v][e] = x
    es = set()
    # the free rows are the first n and stay, so the bound ones follow
    while (pivot := next(((y, e) for y, row in islice(rows.items(), n, None)
                          for e in sorted(row) if alg.is_unit_el(row[e])),
                         None)) is not None:
        y, e = pivot
        hy = rows.pop(y)
        inv = alg.inverse_el(hy.pop(e))
        es.add(e)
        # (c u^-1) b = c (u^-1 b): one product per pivot-row cell, then
        # one per cell of each row that meets the pivot column
        w = [(j, alg.mul_el(inv, b)) for j, b in hy.items()]
        for r in rows.values():
            c = r.pop(e, None)
            if c is not None:
                for j, b in w:
                    t = alg.mul_el(c, b)
                    if any(t):
                        s = tuple(of(a - x) for a, x in zip(r.pop(j, zero), t))
                        if any(s):
                            r[j] = s
    if not es:
        return phi
    cs = {e: i for i, e in enumerate(e for e in range(phi.m) if e not in es)}
    return PpFormula._of(alg, n, len(rows) - n, len(cs), {
        (v, cs[e]): x for v, row in enumerate(rows.values())
        for e, x in row.items()})


class FreeRealization(NamedTuple):
    """A module and an n-tuple of its elements, the tuple as one
    1 x (n.dim) row (coordinates concatenated component by component)."""

    module: Module
    row: Matrix


class PpPair:
    """phi / psi with psi <= phi (so psi(M) <= phi(M) everywhere)."""

    def __init__(self, upper: PpFormula, lower: PpFormula):
        # implies refuses formulas over different algebras or arities
        if not lower.implies(upper):
            raise ValueError("lower formula does not imply upper formula")
        self.upper = upper
        self.lower = lower


def _check_arity(n: int):
    if n < 1:
        raise ValueError(f"free arity n={n}: a formula needs at least one "
                         "free variable")


def _check_compatible(a: PpFormula, b: PpFormula):
    if a.algebra is not b.algebra:
        raise ValueError("formulas over different algebras")
    if a.n != b.n:
        raise ValueError("formulas with different free arities")


# -- basic constructors -----------------------------------------------------


def tautology(alg: FDAlgebra) -> PpFormula:
    """x1 = x1: the formula with no condition."""
    return PpFormula(alg, 1, [[]])


def bottom(alg: FDAlgebra) -> PpFormula:
    """x1 = 0."""
    return PpFormula(alg, 1, [[alg.unit]])


def divisibility(alg: FDAlgebra, a) -> PpFormula:
    """a | x: exists y with x = y a; over A.op, the left A-formula
    x = a y."""
    a = tuple(a)
    return PpFormula(alg, 1, [[alg.unit], [alg.neg_el(a)]])


def annihilator(alg: FDAlgebra, a) -> PpFormula:
    """x a = 0; over A.op, the left A-formula a x = 0."""
    a = tuple(a)
    return PpFormula(alg, 1, [[a]])


# -- lattice operations ------------------------------------------------------


def _placed(phi: PpFormula, rows, col: int) -> dict:
    """phi's cells with variable v on row rows[v] and condition e in
    column col + e."""
    return {(rows[v], col + e): x for (v, e), x in phi.cells.items()}


def pp_sum(phi: PpFormula, psi: PpFormula) -> PpFormula:
    """The join: (phi + psi)(x) = exists u, v: x = u + v, phi(u), psi(v)."""
    _check_compatible(phi, psi)
    alg, n = phi.algebra, phi.n
    nu = alg.neg_el(alg.unit)
    # variables x | u | v | y_phi | y_psi, conditions x = u + v | phi | psi
    l = 2 * n + phi.l + psi.l
    u_rows = [*range(n, 2 * n), *range(3 * n, 3 * n + phi.l)]
    v_rows = [*range(2 * n, 3 * n), *range(3 * n + phi.l, n + l)]
    cells = {**_placed(phi, u_rows, n), **_placed(psi, v_rows, n + phi.m)}
    for i in range(n):
        cells.update({(i, i): alg.unit, (n + i, i): nu, (2 * n + i, i): nu})
    return PpFormula._of(alg, n, l, n + phi.m + psi.m, cells)


def pp_meet(phi: PpFormula, psi: PpFormula) -> PpFormula:
    """The meet: phi(x) and psi(x), bound variables concatenated."""
    _check_compatible(phi, psi)
    n, l = phi.n, phi.l + psi.l
    cells = {**_placed(phi, range(n + phi.l), 0),
             **_placed(psi, [*range(n), *range(n + phi.l, n + l)], phi.m)}
    return PpFormula._of(phi.algebra, n, l, phi.m + psi.m, cells)


# -- elementary duality -------------------------------------------------------


def dual(phi: PpFormula) -> PpFormula:
    """The matrix-level anti-isomorphism from the pp lattice over A to the
    one over A.op (Prest, op. cit., section 1.3), for phi over A.  In
    variables-as-rows coordinates the same block construction serves both
    directions, as A.op.op is A:

        D [H' over x; H'' over y]  =  [I 0 ; H'^T H''^T]

    with n free rows kept, m new bound rows, and n+l conditions."""
    n = phi.n
    cells = {(n + e, v): x for (v, e), x in phi.cells.items()}
    cells.update({(i, i): phi.algebra.unit for i in range(n)})
    return PpFormula._of(phi.algebra.op, n, phi.m, n + phi.l, cells)


# -- pp-type generators --------------------------------------------------------


def pp_type_generator(module: Module, tup) -> PpFormula:
    """The generator of the pp-type of a tuple in a finitely presented
    right module: exists y (x = y A and y H = 0), where H is the relation
    matrix of presentation_of(module) and A expresses the tuple over its
    generators.  The module and the tuple are its free realization, and it
    is built with them, so it is evaluated through Hom (see
    PpFormula.evaluate) and is its own reduced formula.  The shape of the
    tuple is checked here; the sizes l and m and the cells are built on
    the first read of any of them."""
    tup = tuple(map(tuple, tup))
    alg, n, d = module.algebra, len(tup), module.dim
    _check_arity(n)
    for v in tup:
        if len(v) != d:
            raise ValueError(f"tuple component of length {len(v)}, not the "
                             f"module dimension {d}")
    phi = object.__new__(PpFormula)
    phi.algebra, phi.n, phi._by_hom = alg, n, True
    phi._realization = FreeRealization(module, Matrix(
        alg.field, 1, n * d, [[c for v in tup for c in v]]))
    phi._eval_cache, phi._reduced, phi._tuple = {}, _OWN, tup
    return phi


def pp_type_generator_of_element(module: Module, vec) -> PpFormula:
    """Generator of the pp-type of a single element of a right module."""
    return pp_type_generator(module, (vec,))
