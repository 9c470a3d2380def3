"""Krull-Schmidt decomposition and the radical of the module category.

M is split by the Fitting decomposition M = ker f^d (+) im f^d (d >= dim
M) of the first basis element f of E = End(M) that is neither nilpotent
nor invertible.  Otherwise one deterministic certificate, for every field
and size of E, proves E local (M indecomposable) or yields a splitter:

* GF(p).  Let N be the two-sided ideal generated by the commutators of a
  basis.  E/N is commutative, so the Frobenius x -> x^p is F_p-linear on
  it, and its fixed elements form F_p^r for r the number of local factors
  of E/N (Berlekamp's count: in a local factor, a fixed x has a residue a
  in F_p, and x - a is a nilpotent fixed point, hence 0).  A local E has
  E/rad a finite division ring, hence a field (Wedderburn's little
  theorem), so N lies in rad E.  Thus E is local iff N is nilpotent (the
  flag M > MN > MN^2 > ... reaches 0) and the fixed space has dimension
  1; then rad E is the kernel of x -> x^(p^m) modulo N for p^m >= dim E.
  If N is nilpotent and r > 1, a fixed x outside F_p + N is a non-scalar
  element of F_p^r, and x - a for a its value on one factor is neither
  nilpotent nor invertible.
* QQ.  rad E is the radical of the trace form (Dickson, characteristic
  0).  If E/rad is commutative it is a product of number fields, and
  x_c = sum_i c^i b_i (c = 0, 1, 2, ...) over a basis b of a complement
  of rad generates it for all but finitely many c: an etale algebra has
  finitely many proper subalgebras, and the moment curve meets each in
  fewer than dim E/rad points.  The first x_c whose minimal polynomial is
  a power of one irreducible of degree dim E/rad proves E/rad = QQ[x_c] a
  field; two coprime factors give a CRT idempotent, which splits M.

A non-local module that these elements do not split is tried on pairwise
sums and products of the basis, and Undecided is raised if none splits
it, so no verdict rests on a size cutoff or a random draw.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .errors import Undecided
from .linalg import (Matrix, Subspace, combination, projected_kernel,
                     subspace_sum, vectorized)
from .modules import (Module, ModuleMap, _record_of, hom_space,
                      identity_map, indecomposable_iso, iso_classes, submodule)

# the summand module of an indecomposable module, in the decomposition kept
# in its content record: a sentinel rather than the module itself, so that
# the record refers to no module it describes
_OWN = object()


class Summand:
    def __init__(self, module: Module, inject: ModuleMap,
                 project: ModuleMap, end_dim: int, rad: tuple[Matrix, ...]):
        self.module = module
        self.inject = inject     # module -> parent
        self.project = project   # parent -> module
        self.end_dim = end_dim
        self.rad = rad           # basis of rad End(module)

    @property
    def end_rad_dim(self) -> int:
        return len(self.rad)

    @property
    def idempotent(self) -> ModuleMap:
        return self.project.then(self.inject)


class Decomposition:
    def __init__(self, module: Module, summands: list[Summand],
                 classes: list[tuple[Summand, int, tuple[int, ...]]]):
        self.module = module
        self.summands = summands
        # grouped up to isomorphism: (representative Summand, multiplicity,
        # indices into summands) per class
        self.classes = classes

    def idempotents(self) -> list[ModuleMap]:
        return [s.idempotent for s in self.summands]


def _frobenius(x: Matrix, p: int, times: int = 1) -> Matrix:
    """x^(p^times); x^p by repeated squaring, at most 2 log2(p) products."""
    for _ in range(times):
        base = x
        for bit in bin(p)[3:]:
            x = x * x
            if bit == "1":
                x = x * base
    return x


def _fitting_split(m: Module, x: Matrix):
    """(kernel part, image part) of x^d for 2^k = d >= dim M, or None if x
    is nilpotent or invertible.  By Fitting's lemma the two parts are
    complementary invariant subspaces."""
    d = 1
    while d < m.dim:
        x = x * x
        d *= 2
    img = Subspace(x.row_space())
    if img.dim == 0 or img.dim == m.dim:
        return None
    return Subspace(x.left_kernel()), img


def _commutator_ideal(mats: list[Matrix], coords) -> Subspace:
    """Coefficient rows of the two-sided ideal of span(mats) generated by
    the commutators of mats."""
    ideal = Subspace.zero(mats[0].field, len(mats))
    todo = [a * b - b * a for a, b in itertools.combinations(mats, 2)]
    while todo:
        y = todo.pop()
        if y.is_zero():
            continue
        grown = subspace_sum(ideal, Subspace.from_matrix(coords([y])))
        if grown.dim > ideal.dim:
            ideal = grown
            todo += [y * x for x in mats] + [x * y for x in mats]
    return ideal


def _modular_certificate(mats: list[Matrix], coords):
    """Over GF(p): (rad, ()) with a basis of rad E when E = span(mats) is
    local, else (None, candidates): the Frobenius-fixed elements minus
    each of their eigenvalues in GF(p), least first."""
    f, n = mats[0].field, mats[0].rows
    ideal = _commutator_ideal(mats, coords)
    # coefficient rows c with c (x^p - x) in N: the fixed elements mod N
    moved = coords([_frobenius(x, f.p) - x for x in mats])
    fixed = projected_kernel(moved.vstack(ideal.basis), len(mats))
    flag = Matrix.identity(f, n)
    gens = [combination(r, mats) for r in ideal.basis.data]
    while gens and flag.rows:  # the flag M > MN > MN^2 > ...
        nxt = functools.reduce(Matrix.vstack,
                               [flag * y for y in gens]).row_space()
        if nxt.rows == flag.rows:
            break
        flag = nxt
    if fixed.rows == ideal.dim + 1 and (not gens or not flag.rows):
        times = 1
        while f.p ** times < len(mats):
            times += 1
        powers = coords([_frobenius(x, f.p, times) for x in mats])
        rad = projected_kernel(powers.vstack(ideal.basis), len(mats))
        return [combination(r, mats) for r in rad.data], ()
    one = Matrix.identity(f, n)
    return None, (x - one.scale(a) for x in
                  (combination(r, mats) for r in fixed.data)
                  for a in _eigenvalues(x))


def _eigenvalues(x: Matrix) -> list[int]:
    """x's distinct eigenvalues in GF(p), least first (x - a is a unit for
    any other a, and GF(p) may be too large to walk)."""
    from sympy import Matrix as SympyMatrix, Poly, Symbol
    t, p = Symbol("t"), x.field.p
    char = Poly(SympyMatrix(x.data).charpoly(t).as_expr(), t, modulus=p)
    return sorted(-int(g.TC()) % p for g, _ in char.factor_list()[1]
                  if g.degree() == 1)


def _rational_certificate(mats: list[Matrix], coords):
    """Over QQ: (rad, ()) with a basis of rad E when E = span(mats) is
    local, else (None, candidates): a CRT idempotent when E/rad is
    commutative.  The trace form's Gram matrix is one product:
    tr(B_i B_j) is the dot product of vec(B_i) with vec(B_j^T)."""
    f, n = mats[0].field, mats[0].rows
    gram = vectorized(f, mats, n * n) * \
        vectorized(f, [b.transpose() for b in mats], n * n).transpose()
    radical = Subspace(gram.right_kernel())
    rad = [combination(r, mats) for r in radical.basis.data]
    top_dim = len(mats) - radical.dim
    if top_dim == 1:
        return rad, ()
    top = [x for i, x in enumerate(mats) if i not in radical.pivots]
    comms = [a * b - b * a for a, b in itertools.combinations(top, 2)]
    if not all(radical.contains_vector(r) for r in coords(comms).data):
        return None, ()
    # sympy is imported only here, where a commutative top of dimension
    # > 1 is factored: its import costs more than most QQ decompositions
    from sympy import Poly, Rational, Symbol, div, invert
    t = Symbol("t")
    for c in itertools.count():
        x = combination([f.of(c ** i) for i in range(top_dim)], top)
        powers = [Matrix.identity(f, n)]
        while vectorized(f, powers, n * n).rank() == len(powers):
            powers.append(powers[-1] * x)
        rel = vectorized(f, powers, n * n).left_kernel().data[0]
        poly = Poly([Rational(str(a)) for a in reversed(rel)], t)
        factors = poly.factor_list()[1]
        if len(factors) == 1 and factors[0][0].degree() == top_dim:
            return rad, ()
        if len(factors) > 1:
            # e = rest * (rest^{-1} mod g1) is 1 mod g1 and 0 mod rest
            g1 = factors[0][0] ** factors[0][1]
            rest = div(poly, g1, t)[0]
            u = invert(rest.as_expr(), g1.as_expr(), t)
            e_poly = div(Poly(rest.as_expr() * u, t), poly, t)[1]
            coeffs = [Fraction(str(a)) for a in reversed(e_poly.all_coeffs())]
            return None, (combination(coeffs, powers),)


def _echelon(mats: list[Matrix]):
    """The echelon basis of span(mats), and the map taking a list of
    matrices in the span to their coefficient rows in that basis."""
    f, n = mats[0].field, mats[0].rows
    echelon, pivots = vectorized(f, mats, n * n).rref()

    def coords(xs):
        return vectorized(f, xs, n * n).take_cols(pivots)

    return [echelon.take_rows((i,)).reshape(n, n)
            for i in range(echelon.rows)], coords


def _certify(mats: list[Matrix]):
    """(rad, ()) with a basis of rad E when the algebra E = span(mats) is
    local, else (None, structural candidates for a Fitting split)."""
    certify = _rational_certificate if mats[0].field.p is None \
        else _modular_certificate
    return certify(*_echelon(mats))


def _split_or_radical(m: Module, mats: list[Matrix]):
    """(split, None) with complementary invariant subspaces splitting M,
    or (None, rad) with a basis of rad E when E = End(M), spanned by mats,
    is local; raises Undecided when neither is found."""
    for x in mats:
        split = _fitting_split(m, x)
        if split is not None:
            return split, None
    rad, structural = _certify(mats)
    if rad is not None:
        return None, rad
    candidates = itertools.chain(
        structural,
        (a + b for a, b in itertools.combinations(mats, 2)),
        (a * b for a, b in itertools.permutations(mats, 2)))
    for x in candidates:
        split = _fitting_split(m, x)
        if split is not None:
            return split, None
    raise Undecided(f"End of a {m.dim}-dimensional module is neither "
                    f"certified local nor split by its structural elements, "
                    f"pairwise sums or products")


def _split_indecomposable(m: Module):
    """[(module, inj, proj, end_dim, rad)] of indecomposables, rad a basis
    of rad End(module).  The two parts of a split are decomposed by
    decompose, so a part content-equal to a live module reuses its
    decomposition."""
    if m.dim == 0:
        return []
    ends = [h.mat for h in hom_space(m, m)]
    if len(ends) == 1:
        return [(m, identity_map(m), identity_map(m), 1, [])]
    split, rad = _split_or_radical(m, ends)
    if split is None:
        return [(m, identity_map(m), identity_map(m), len(ends), rad)]
    ker, img = split  # complementary: rows of [ker; img] are a basis of M
    inv = ker.basis.vstack(img.basis).inverse()
    out = []
    for part, cols in ((ker, range(ker.dim)), (img, range(ker.dim, m.dim))):
        sub, inj = submodule(m, part)
        proj = ModuleMap(m, sub, inv.take_cols(cols), check=False)
        for s in decompose(sub).summands:
            out.append((s.module, s.inject.then(inj), proj.then(s.project),
                        s.end_dim, s.rad))
    return out


def decompose(m: Module, seed: int = 0) -> Decomposition:
    """Indecomposable summands with inclusions, projections, splitting
    idempotents and multiplicities.  Deterministic; seed is ignored.

    Computed once per module content: the summand modules (the sentinel
    _OWN for M itself), the inclusion and projection matrices, the End
    dimensions and radicals and the class indices are kept in the record
    of M's content (see modules), and each call rebinds them to M with
    fresh maps.  The record dies by refcount with its last module, or when
    the enclosing records_held block ends.  Content-equal modules share
    the summand modules, radical bases and class index groups, so the
    bases and groups are tuples."""
    rec = _record_of(m)
    if rec.decomposition is None:
        parts = _split_indecomposable(m)
        rec.decomposition = (
            tuple((_OWN if u is m else u, inj.mat, proj.mat, ed, tuple(rad))
                  for u, inj, proj, ed, rad in parts),
            tuple(map(tuple, iso_classes([u for u, *_ in parts]))))
    parts, classes = rec.decomposition
    summands = []
    for u, inj, proj, ed, rad in parts:
        u = m if u is _OWN else u
        summands.append(Summand(u, ModuleMap(u, m, inj, check=False),
                                ModuleMap(m, u, proj, check=False), ed, rad))
    return Decomposition(m, summands, [(summands[idx[0]], len(idx), idx)
                                       for idx in classes])


# -- the radical of the category -------------------------------------------


def radical_subspace(m: Module, n: Module) -> Subspace:
    """rad(M, N) as a subspace of vectorized Hom(M, N), assembled blockwise
    from the decompositions: the full hom space between non-isomorphic
    indecomposables, the maximal ideal of End between isomorphic ones."""
    if m.algebra is not n.algebra:
        raise ValueError("modules over different algebras")
    amb = m.dim * n.dim
    maps: list[Matrix] = []
    for sm in decompose(m).summands:
        for sn in decompose(n).summands:
            u, v = sm.module, sn.module
            iso = indecomposable_iso(u, v)
            if iso is None:
                block = [h.mat for h in hom_space(u, v)]
            else:
                block = [r * iso.mat for r in sm.rad]
            maps += [sm.project.mat * bm * sn.inject.mat for bm in block]
    return Subspace.from_matrix(vectorized(m.algebra.field, maps, amb))


def compose_subspaces(m: Module, c: Module, n: Module,
                      left: Subspace, right: Subspace) -> Subspace:
    """Span of {g . f} for f in a subspace of Hom(M,C), g in Hom(C,N)."""
    amb = m.dim * n.dim
    fs = [left.basis.take_rows((i,)).reshape(m.dim, c.dim)
          for i in range(left.dim)]
    gs = [right.basis.take_rows((j,)).reshape(c.dim, n.dim)
          for j in range(right.dim)]
    return Subspace.from_matrix(
        vectorized(m.algebra.field, [a * b for a in fs for b in gs], amb))


# the highest power rad^t that stabilization_exponent computes
MAX_RADICAL_POWER = 10


class RadicalCalculus:
    """rad^t over a declared finite universe of intermediate objects."""

    def __init__(self, universe: list[Module]):
        if not universe:
            raise ValueError("universe must be non-empty")
        reps = [rep.module for m in universe
                for rep, _, _ in decompose(m).classes]
        self.intermediates = [reps[idx[0]] for idx in iso_classes(reps)]
        self._rad_cache: dict = {}
        self._pow_cache: dict = {}

    def rad(self, m: Module, n: Module) -> Subspace:
        key = (m.serial, n.serial)
        if key not in self._rad_cache:
            self._rad_cache[key] = radical_subspace(m, n)
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

    def stabilization_exponent(self, m: Module, n: Module) -> int | None:
        """Least t with rad^t = rad^{t+1} on the universe, or None when
        the chain has not stabilized by rad^MAX_RADICAL_POWER."""
        prev = self.rad_power(m, n, 1)
        for t in range(1, MAX_RADICAL_POWER):
            cur = self.rad_power(m, n, t + 1)
            if cur == prev:
                return t
            prev = cur
        return None
