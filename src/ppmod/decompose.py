"""Krull-Schmidt decomposition and the radical of the module category.

Splitting uses Fitting decompositions of endomorphisms (stabilized power,
then M = ker f^d (+) im f^d).  A leaf is accepted as indecomposable only
with a certificate that End(M) is local:

* finite fields, small End: every element of End(M) is enumerated and shown
  to be nilpotent or invertible (equivalent to locality for
  finite-dimensional algebras, since a nontrivial idempotent is neither);
* rationals: the radical is computed from the trace form (valid in
  characteristic 0) and End/rad is certified a division ring, factoring a
  primitive element's minimal polynomial when End/rad has dimension > 1.

Split candidates beyond the enumerable range are drawn from the hom basis,
pairwise sums/products and a seeded random sample; on the universes in
scope a decomposable module always yields a candidate.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .linalg import (Matrix, Subspace, combination, span_elements,
                     subspace_meet, subspace_sum, vectorized)
from .modules import (Module, ModuleMap, hom_space, identity_map,
                      indecomposable_iso, submodule)

_ENUM_LIMIT = 1 << 14


@dataclass
class Summand:
    module: Module
    inject: ModuleMap      # module -> parent
    project: ModuleMap     # parent -> module
    end_dim: int
    rad: list[Matrix]      # basis of rad End(module)

    @property
    def end_rad_dim(self) -> int:
        return len(self.rad)

    @property
    def idempotent(self) -> ModuleMap:
        return self.project.then(self.inject)


@dataclass
class Decomposition:
    module: Module
    summands: list[Summand]
    # grouped up to isomorphism: list of (representative Summand, multiplicity,
    # indices into summands)
    classes: list[tuple[Summand, int, list[int]]] = field(default_factory=list)

    def idempotents(self) -> list[ModuleMap]:
        return [s.idempotent for s in self.summands]

    def multiplicities(self) -> list[tuple[Module, int]]:
        return [(rep.module, mult) for rep, mult, _ in self.classes]


def _power_stable(f: Matrix, dim: int) -> Matrix:
    g = f
    k = 1
    while k < max(dim, 1):
        g = g * g
        k *= 2
    return g


def _fitting_split(m: Module, f: ModuleMap):
    """(kernel part, image part) of the stabilized power, or None if f is
    nilpotent or invertible."""
    g = _power_stable(f.mat, m.dim)
    img = Subspace.from_matrix(m.dim, g.row_space())
    if img.dim == 0 or img.dim == m.dim:
        return None
    ker = Subspace(m.dim, g.left_kernel())
    if ker.dim + img.dim != m.dim or subspace_meet(ker, img).dim != 0:
        return None  # power not yet stable; caller retries with higher power
    return ker, img


def _split_by_subspaces(m: Module, parts: list[Subspace]):
    """Split M along complementary invariant subspaces; returns
    [(submodule, inj, proj)] with proj . inj = id."""
    f = m.algebra.field
    stacked = parts[0].basis
    for p in parts[1:]:
        stacked = stacked.vstack(p.basis)
    inv = stacked.inverse()
    out = []
    off = 0
    for p in parts:
        sub, inj = submodule(m, p, check=False)
        proj_mat = inv.take_cols(range(off, off + p.dim))
        out.append((sub, inj, ModuleMap(m, sub, proj_mat, check=False)))
        off += p.dim
    return out


def _el_is_nilpotent(mat: Matrix, dim: int) -> bool:
    return _power_stable(mat, dim).is_zero()


def _end_certify_local_finite(m: Module, basis: list[ModuleMap]):
    """Enumerate End(M) over a finite field.  Returns (True, rad) with a
    coefficient basis of the radical (the nilpotents) when local, or
    (False, splitter) with a non-nilpotent non-invertible element."""
    f = m.algebra.field
    nilpotent = []
    for coeffs, mat in span_elements([h.mat for h in basis],
                                     Matrix.zero(f, m.dim, m.dim)):
        if mat.rank() == m.dim:
            continue
        if not _el_is_nilpotent(mat, m.dim):
            return False, ModuleMap(m, m, mat, check=False)
        nilpotent.append(coeffs)
    rad = Matrix.from_rows(f, nilpotent).row_space()
    # non-invertibles must form a linear subspace for a local ring
    if f.p ** rad.rows != len(nilpotent):
        raise RuntimeError("endomorphism nilpotents do not form a subspace")
    return True, rad.data


def _end_radical_dickson(basis: list[ModuleMap]) -> list[list]:
    """Radical of End over QQ via the trace form (characteristic 0).

    The Gram matrix of the form is one product: tr(B_i B_j) is the dot
    product of vec(B_i) with vec(B_j^T)."""
    mats = [h.mat for h in basis]
    f, d = mats[0].field, mats[0].rows
    gram = vectorized(f, mats, d * d) * \
        vectorized(f, [b.transpose() for b in mats], d * d).transpose()
    return gram.right_kernel().data


def _min_poly_coeffs(mat: Matrix, f) -> list:
    """Coefficients c_0..c_d of the minimal polynomial (sum c_i t^i = 0)."""
    powers = [Matrix.identity(f, mat.rows)]
    while True:
        mrows = vectorized(f, powers, mat.rows * mat.cols)
        if mrows.rank() < len(powers):
            break
        powers.append(powers[-1] * mat)
    rel = mrows.left_kernel().data[0]
    return list(rel)


def _eval_poly_coeffs(coeffs, mat: Matrix, f) -> Matrix:
    powers = [Matrix.identity(f, mat.rows)]
    for _ in coeffs[1:]:
        powers.append(powers[-1] * mat)
    return combination(coeffs, powers)


def _end_certify_local_rational(m: Module, basis: list[ModuleMap]):
    """Certify End(M) local over QQ, or produce a splitting idempotent.

    The radical comes from the trace form (valid in characteristic 0 on the
    faithful representation M); End/rad is certified a field by exhibiting a
    primitive element with irreducible minimal polynomial of full degree.
    """
    f = m.algebra.field
    rad = _end_radical_dickson(basis)
    top_dim = len(basis) - len(rad)
    if top_dim == 1:
        return True, rad
    from fractions import Fraction
    from sympy import Poly, Rational, Symbol, div, invert
    t = Symbol("t")
    rng = random.Random(7)
    for attempt in range(60):
        coeffs = [f.of(rng.randint(-3, 3)) for _ in range(len(basis))]
        mat = combination(coeffs, [h.mat for h in basis])
        rel = _min_poly_coeffs(mat, f)
        poly = Poly([Rational(str(c)) for c in reversed(rel)], t)
        factors = poly.factor_list()[1]
        if len(factors) == 1 and factors[0][1] == 1 \
                and factors[0][0].degree() == top_dim:
            return True, rad
        if len(factors) > 1:
            # CRT idempotent: e = rest * (rest^{-1} mod g1), so e = 1 mod g1
            # and e = 0 mod rest; nontrivial idempotent of QQ[mat]
            g1 = factors[0][0] ** factors[0][1]
            rest = div(poly, g1, t)[0]
            try:
                u = invert(rest.as_expr(), g1.as_expr(), t)
            except Exception:
                continue
            e_poly = div(Poly(rest.as_expr() * u, t), poly, t)[1]
            ecoeffs = [f.of(0) + Fraction(str(c))
                       for c in reversed(e_poly.all_coeffs())]
            emat = _eval_poly_coeffs(ecoeffs, mat, f)
            if not emat.is_zero() and emat != Matrix.identity(f, m.dim):
                return False, ModuleMap(m, m, emat, check=False)
    raise RuntimeError("cannot certify local endomorphism ring over QQ")


def _splitter_candidates(m: Module, basis: list[ModuleMap],
                         rng: random.Random):
    """Basis elements, pairwise sums, pairwise products, then 512 seeded
    random combinations over the finite field, each made when it is
    reached (rng is drawn only for the random ones)."""
    yield from basis
    for a, b in itertools.combinations(basis, 2):
        yield a + b
    for a, b in itertools.permutations(basis, 2):
        yield ModuleMap(m, m, a.mat * b.mat, check=False)
    pool = list(m.algebra.field.elements())
    mats = [h.mat for h in basis]
    for _ in range(512):
        coeffs = [rng.choice(pool) for _ in mats]
        yield ModuleMap(m, m, combination(coeffs, mats), check=False)


def _find_splitter(m: Module, basis: list[ModuleMap], rng: random.Random):
    """The Fitting split of the first candidate that has one, or None."""
    for cand in _splitter_candidates(m, basis, rng):
        split = _fitting_split(m, cand)
        if split is not None:
            return split
    return None


def _split_indecomposable(m: Module, rng: random.Random):
    """[(module, inj, proj, end_dim, rad)] of indecomposables, rad a basis
    of rad End(module)."""
    if m.dim == 0:
        return []
    ends = hom_space(m, m)
    f = m.algebra.field
    if len(ends) == 1:
        return [(m, identity_map(m), identity_map(m), 1, [])]
    if f.p is not None and f.p ** len(ends) > _ENUM_LIMIT:
        split = _find_splitter(m, ends, rng)
        if split is None:
            raise RuntimeError(
                "no splitting endomorphism found and End too large to "
                "certify; not expected on the supported universes")
    else:
        certify = _end_certify_local_rational if f.p is None \
            else _end_certify_local_finite
        local, info = certify(m, ends)
        if local:
            mats = [h.mat for h in ends]
            return [(m, identity_map(m), identity_map(m), len(ends),
                     [combination(c, mats) for c in info])]
        split = _fitting_split(m, info)
    if split is None:
        raise RuntimeError("splitter produced no Fitting decomposition")
    parts = _split_by_subspaces(m, list(split))
    out = []
    for sub, inj, proj in parts:
        for (u, inj2, proj2, ed, rad) in _split_indecomposable(sub, rng):
            out.append((u, inj2.then(inj), proj.then(proj2), ed, rad))
    return out


def decompose(m: Module, seed: int = 0) -> Decomposition:
    """Indecomposable summands with inclusions, projections, splitting
    idempotents and multiplicities.  Deterministic for a fixed seed."""
    rng = random.Random(seed)
    raw = _split_indecomposable(m, rng)
    summands = [Summand(*part) for part in raw]
    decomp = Decomposition(m, summands)
    classes: list[tuple[Summand, int, list[int]]] = []
    for i, s in enumerate(summands):
        for ci, (rep, mult, idx) in enumerate(classes):
            if indecomposable_iso(s.module, rep.module) is not None:
                classes[ci] = (rep, mult + 1, idx + [i])
                break
        else:
            classes.append((s, 1, [i]))
    decomp.classes = classes
    return decomp


def is_indecomposable(m: Module) -> bool:
    if m.dim == 0:
        return False
    return len(decompose(m).summands) == 1


# -- the radical of the category -------------------------------------------


def hom_subspace(m: Module, n: Module) -> Subspace:
    """Hom(M, N) as a subspace of the vectorized map space k^{dM.dN}."""
    amb = m.dim * n.dim
    return Subspace.from_matrix(amb, vectorized(
        m.algebra.field, [h.mat for h in hom_space(m, n)], amb))


def radical_subspace(m: Module, n: Module, seed: int = 0) -> Subspace:
    """rad(M, N) as a subspace of vectorized Hom(M, N), assembled blockwise
    from the decompositions: the full hom space between non-isomorphic
    indecomposables, the maximal ideal of End between isomorphic ones."""
    if m.algebra is not n.algebra:
        raise ValueError("modules over different algebras")
    return _radical_of(decompose(m, seed), decompose(n, seed))


def _radical_of(dm: Decomposition, dn: Decomposition) -> Subspace:
    """radical_subspace(dm.module, dn.module) from their decompositions."""
    f = dm.module.algebra.field
    amb = dm.module.dim * dn.module.dim
    maps: list[Matrix] = []
    for sm in dm.summands:
        for sn in dn.summands:
            u, v = sm.module, sn.module
            iso = indecomposable_iso(u, v)
            if iso is None:
                block = [h.mat for h in hom_space(u, v)]
            else:
                block = [r * iso.mat for r in sm.rad]
            maps += [sm.project.mat * bm * sn.inject.mat for bm in block]
    return Subspace.from_matrix(amb, vectorized(f, maps, amb))


def compose_subspaces(m: Module, c: Module, n: Module,
                      left: Subspace, right: Subspace) -> Subspace:
    """Span of {g . f} for f in a subspace of Hom(M,C), g in Hom(C,N)."""
    amb = m.dim * n.dim
    fs = [left.basis.take_rows((i,)).reshape(m.dim, c.dim)
          for i in range(left.dim)]
    gs = [right.basis.take_rows((j,)).reshape(c.dim, n.dim)
          for j in range(right.dim)]
    return Subspace.from_matrix(
        amb, vectorized(m.algebra.field, [a * b for a in fs for b in gs], amb))


class RadicalCalculus:
    """rad^t over a declared finite universe of intermediate objects."""

    def __init__(self, universe: list[Module], seed: int = 0):
        if not universe:
            raise ValueError("universe must be non-empty")
        self.seed = seed
        self._decomposition: dict[int, Decomposition] = {}
        mids: list[Module] = []
        for m in universe:
            for rep, _, _ in self._decomposed(m).classes:
                if not any(indecomposable_iso(rep.module, u) is not None
                           for u in mids):
                    mids.append(rep.module)
        self.intermediates = mids
        self._rad_cache: dict = {}
        self._pow_cache: dict = {}

    def _decomposed(self, m: Module) -> Decomposition:
        """decompose(m, seed), computed once per module."""
        hit = self._decomposition.get(m.serial)
        if hit is None:
            hit = self._decomposition[m.serial] = decompose(m, self.seed)
        return hit

    def rad(self, m: Module, n: Module) -> Subspace:
        if m.algebra is not n.algebra:
            raise ValueError("modules over different algebras")
        key = (m.serial, n.serial)
        if key not in self._rad_cache:
            self._rad_cache[key] = _radical_of(self._decomposed(m),
                                               self._decomposed(n))
        return self._rad_cache[key]

    def rad_power(self, m: Module, n: Module, t: int) -> Subspace:
        """rad^t(M, N), composing through the universe's indecomposables."""
        if t < 1:
            raise ValueError("t must be >= 1")
        if t == 1:
            return self.rad(m, n)
        key = (m.serial, n.serial, t)
        hit = self._pow_cache.get(key)
        if hit is not None:
            return hit
        f = m.algebra.field
        total = Subspace.zero(f, m.dim * n.dim)
        for c in self.intermediates:
            left = self.rad_power(m, c, t - 1)
            right = self.rad(c, n)
            total = subspace_sum(total, compose_subspaces(m, c, n, left, right))
        self._pow_cache[key] = total
        return total

    def stabilization_exponent(self, m: Module, n: Module,
                               t_max: int = 12) -> int | None:
        """Least t with rad^t = rad^{t+1} on the universe, or None."""
        prev = self.rad_power(m, n, 1)
        for t in range(1, t_max):
            cur = self.rad_power(m, n, t + 1)
            if cur == prev:
                return t
            prev = cur
        return None
