"""Iterated one-point extensions of the truncated valuation ring.

The tower R_0 = k[x]/(x^N), R_{i+1} = (R_i 0 / L_i k), the one-point
extension by L_i (L_0 the unique simple, L_{i+1} its image under the
second embedding functor).  R_h is the quiver with a loop x at vertex 0
and arrows b_i: i -> i-1 (1 <= i <= h) modulo x^N and b_1 x: its basis
paths are R_{h-1}'s, then L_{h-1}'s, L{h-1}~k = b_h ... b_{h-k} into
vertex h-1-k, then the idempotent eps_h.  From R_1 on, vertex 0's
idempotent is the path eps0, not 1, which formula text reads as the unit.
All of (R_i 0 / L_i k) but L_i's basis times R_i holds by how paths
compose; that block is certified to be L_i's action at construction.

F0 pads M's action with zeros for the L_i paths and eps_{i+1} and moves
no coordinate, so F0 of a map is the same matrix and only F1 lifts maps
(f1_map); F1 is the block form on [Hom(L_i, M) | M]; restrict is
x -> x(1 - eps_{i+1}), back to R_i.  The realized ray-tube ladder
(realize.py) lifts each of its maps through F1 one depth at a time, and
checks its stage row from M_0 = 0.  The classifier identifies every
finitely presented module by a label in the grammar

    T(n)  |  F0^a F1^b Ind(j)  |  F0^a F1^b T(m)

with exponent sums matching the tower height and m >= 1: T(0), the
valuation simple, is Ind(1), so the labels never name it.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import FDAlgebra, dvr_paths, monomial_algebra, truncated_dvr
from .catalog import dvr_chain_module
from .decompose import decompose
from .errors import HorizonExceeded, UnclassifiedSummand
from .fields import Field
from .linalg import Matrix, Subspace, block, vectorized
from .modules import Module, ModuleMap, hom_space, iso_test, quiver_rep


class TowerRing:
    """The chain R_0 .. R_n with the bimodules L_0 .. L_n; the vertex
    idempotents are the empty-word paths eps0 .. eps_n of each ring."""

    def __init__(self, N: int, height: int, field: Field):
        if N < 1 or height < 0:
            raise ValueError("need horizon N >= 1 and height >= 0")
        self.N = N
        self.height = height
        self.field = field
        self.algebras: list[FDAlgebra] = [truncated_dvr(N, field)]
        self.bimodules: list[Module] = [dvr_chain_module(self.algebras[0], 1)]
        self.bimodules[0].label = "L0"
        # c is no unit from R_1 on, so not "1", which text reads as the unit
        paths = [("eps0", 0, 0, ()), *dvr_paths(N)[1:]]
        for i in range(height):
            arrows = [f"b{i + 1 - m}" for m in range(i + 1)]  # b_{i+1}..b_1
            paths += [(f"L{i}~{k}", i + 1, i - k, arrows[:k + 1])
                      for k in range(i + 1)]
            paths.append((f"eps{i + 1}", i + 1, i + 1, ()))
            self.algebras.append(monomial_algebra(
                field, paths, f"{self.algebras[i].name}[L{i}]"))
            nxt = f1(self, i + 1, self.bimodules[i])
            nxt.label = f"L{i + 1}"
            self.bimodules.append(nxt)
        self._check_shape()
        self._label_cache: dict = {}

    def _check_shape(self):
        z = (self.field.zero(),)
        for i, l in enumerate(self.bimodules):
            if l.dim != i + 1:
                raise AssertionError("bimodule dimension drifted")
        for i, l in enumerate(self.bimodules[:self.height]):
            # L_i's basis times R_i in R_{i+1} is L_i's action, padded
            alg, r = self.algebras[i + 1], self.algebras[i].dim
            if any(alg.mul_el(alg.basis_el(r + k), alg.basis_el(j))
                   != z * r + l.action[j].data[k] + z
                   for k in range(l.dim) for j in range(r)):
                raise AssertionError(f"L{i} does not act as in R{i + 1}")
        if self.top.dim != tower_dimension(self.N, self.height):
            raise AssertionError("tower dimension formula violated")

    @property
    def top(self) -> FDAlgebra:
        return self.algebras[self.height]


def tower_dimension(N: int, height: int) -> int:
    """Dimension of the top ring R_height of the tower of horizon N."""
    return N + height * (height + 3) // 2


def build_tower(N: int, height: int, field: Field) -> TowerRing:
    return TowerRing(N, height, field)


# -- the three functors ------------------------------------------------------


def _check_level(tower: TowerRing, level: int, m: Module, ring: int):
    """Refuse a level outside 1..height, or a module not over R_ring."""
    if not (1 <= level <= tower.height):
        raise ValueError("level out of range")
    if m.algebra is not tower.algebras[ring]:
        raise ValueError(f"module is not over the ring R{ring}")


def f0(tower: TowerRing, level: int, m: Module) -> Module:
    """(0, M, 0): the first full and faithful embedding, one level up, on
    M's coordinates: M's action, then zero for every L path and eps."""
    _check_level(tower, level, m, level - 1)
    alg = tower.algebras[level]
    pad = (Matrix.zero(tower.field, m.dim, m.dim),) * (alg.dim - len(m.action))
    return Module(alg, m.action + pad,
                  label=f"F0({m.label})" if m.label else "")


def f1(tower: TowerRing, level: int, m: Module) -> Module:
    """(Hom(L, M), M, id): the second full and faithful embedding, on
    coordinates [Hom(L, M) | M] from the basis of Hom(L, M) that hom_space
    keeps in L's record."""
    _check_level(tower, level, m, level - 1)
    f, l_mod, d = tower.field, tower.bimodules[level - 1], m.dim
    homs = [h.mat for h in hom_space(l_mod, m)]
    bands = [len(homs), d]
    # row r of gam holds homs[r]'s rows side by side
    gam = vectorized(f, homs, l_mod.dim * d)
    action = [block(f, bands, bands, {(1, 1): a}) for a in m.action]
    action += [block(f, bands, bands,
                     {(0, 1): gam.take_cols(range(j * d, (j + 1) * d))})
               for j in range(l_mod.dim)]
    action.append(block(f, bands, bands,
                        {(0, 0): Matrix.identity(f, len(homs))}))
    return Module(tower.algebras[level], action,
                  label=f"F1({m.label})" if m.label else "")


def restrict(tower: TowerRing, level: int, x: Module) -> tuple[int, Module]:
    """(dim x eps, x(1 - eps)) for x over R_level: the core x(1 - eps) as an
    R_{level-1}-module in the RREF basis of its rows, and dim x eps with no
    elimination, as eps and 1 - eps are complementary idempotents."""
    _check_level(tower, level, x, level)
    base = tower.algebras[level - 1]
    eps = x.action[tower.algebras[level].dim - 1]
    core = Subspace.from_matrix(Matrix.identity(tower.field, x.dim) - eps)
    action = [(core.basis * x.action[i]).take_cols(core.pivots)
              for i in range(base.dim)]
    return x.dim - core.dim, Module(base, action)


def f1_map(tower: TowerRing, level: int, fmap: ModuleMap) -> ModuleMap:
    """Block action on (Hom(L, X), X): post-composition on the hom part."""
    f, bimodule = tower.field, tower.bimodules[level - 1]
    sx, sy = f1(tower, level, fmap.source), f1(tower, level, fmap.target)
    hx = [h.mat for h in hom_space(bimodule, fmap.source)]
    hy = [h.mat for h in hom_space(bimodule, fmap.target)]
    # h . f over the target hom basis, one row of coefficients per h
    width = bimodule.dim * fmap.target.dim
    coeffs = vectorized(f, hy, width).solve_left(
        vectorized(f, [h * fmap.mat for h in hx], width))
    if coeffs is None:
        raise ValueError("composition left the hom space span")
    mat = block(f, [len(hx), fmap.source.dim], [len(hy), fmap.target.dim],
                {(0, 0): coeffs, (1, 1): fmap.mat})
    return ModuleMap(sx, sy, mat, check=False)


def lift(tower: TowerRing, m: Module, level: int, b: int, a: int) -> Module:
    """F0^a F1^b of a module over R_level: F1 at the next b levels, then
    F0 at the next a levels.  It lifts no map: F0 moves no coordinate, so
    F0 of a map is the same matrix between the padded ends, and f1_map
    lifts a map through F1."""
    for lvl in range(level + 1, level + b + a + 1):
        m = (f1 if lvl <= level + b else f0)(tower, lvl, m)
    return m


def natural_embedding(tower: TowerRing, level: int, m: Module) -> ModuleMap:
    """The canonical embedding (0, id): F0 M -> F1 M."""
    src = f0(tower, level, m)
    tgt = f1(tower, level, m)
    mat = Matrix.identity(tower.field, tgt.dim).take_rows(
        range(tgt.dim - m.dim, tgt.dim))
    return ModuleMap(src, tgt, mat, check=True)


def t_module(tower: TowerRing, m: int) -> Module:
    """The simple concentrated at the extension vertex of level m; at level
    0 the valuation simple, Ind(1), which the labels name as such."""
    if not (0 <= m <= tower.height):
        raise ValueError(f"T({m}) outside the tower levels 0..{tower.height}")
    if m == 0:
        return dvr_chain_module(tower.algebras[0], 1)
    return quiver_rep(tower.algebras[m], {m: 1}, {}, label=f"T({m})")


# -- labels and classification -------------------------------------------------


class FpLabel(NamedTuple):
    """Classification label: F0^a F1^b applied to Ind(j) or T(m)."""

    a: int
    b: int
    base: tuple  # ("Ind", j) or ("T", m)

    def __str__(self):
        kind, idx = self.base
        if kind == "T" and self.a == 0 and self.b == 0:
            return f"T({idx})"
        return f"F0^{self.a} F1^{self.b} {kind}({idx})"


def label_module(tower: TowerRing, lab: FpLabel, level: int) -> Module:
    """The module a label denotes over R_level."""
    kind, idx = lab.base
    if kind == "Ind":
        if not (1 <= idx <= tower.N):
            raise HorizonExceeded(f"Ind({idx}) outside horizon {tower.N}")
        base, start = dvr_chain_module(tower.algebras[0], idx), 0
    else:
        base, start = t_module(tower, idx), idx
    if start + lab.b + lab.a != level:
        raise ValueError(f"label exponents do not reach level {level}")
    return lift(tower, base, start, lab.b, lab.a)


def construct_label(tower: TowerRing, lab: FpLabel) -> Module:
    """label_module at the tower height, labelled and cached."""
    key = (lab.a, lab.b, lab.base)
    m = tower._label_cache.get(key)
    if m is None:
        m = label_module(tower, lab, tower.height)
        m.label = str(lab)
        tower._label_cache[key] = m
    return m


def all_labels(tower: TowerRing, dim_cap: int | None = None) -> list[FpLabel]:
    """Every label at the tower height, sorted by text, optionally capped
    by dimension: F0^a F1^b Ind(j), and F0^a F1^b T(m) for m >= 1 (T(0)
    is Ind(1))."""
    n = tower.height
    out = []
    for a in range(n + 1):
        b = n - a
        for j in range(1, tower.N + 1):
            out.append(FpLabel(a, b, ("Ind", j)))
    for m in range(1, n + 1):
        for a in range(n - m + 1):
            b = n - m - a
            out.append(FpLabel(a, b, ("T", m)))
    if dim_cap is not None:
        out = [lab for lab in out
               if construct_label(tower, lab).dim <= dim_cap]
    return sorted(out, key=str)


def identify_indecomposable(tower: TowerRing, level: int,
                            u: Module) -> FpLabel:
    """Label of an indecomposable module at the given level."""
    if level == 0:
        j = u.dim
        if not (1 <= j <= tower.N) or \
                iso_test(u, dvr_chain_module(tower.algebras[0], j)) is None:
            raise UnclassifiedSummand("level-0 summand not a chain module")
        return FpLabel(0, 0, ("Ind", j))
    ext, core = restrict(tower, level, u)
    if core.dim == 0:
        if ext == 1:
            return FpLabel(0, 0, ("T", level))
        raise UnclassifiedSummand("extension part not simple")
    if ext == 0:
        inner = identify_indecomposable(tower, level - 1, core)
        return FpLabel(inner.a + 1, inner.b, inner.base)
    rebuilt = f1(tower, level, core)
    if iso_test(u, rebuilt) is None:
        raise UnclassifiedSummand("not isomorphic to the F1 of its core")
    inner = identify_indecomposable(tower, level - 1, core)
    if inner.a != 0:
        raise UnclassifiedSummand("F1 wraps an F0 layer; impossible shape")
    return FpLabel(0, inner.b + 1, inner.base)


def classify(tower: TowerRing, x: Module) -> list[tuple[FpLabel, int]]:
    """Classification of any module at the tower height as a multiset of
    labels, sorted by label text."""
    counts: dict[str, tuple[FpLabel, int]] = {}
    for rep, mult, _ in decompose(x).classes:
        lab = identify_indecomposable(tower, tower.height, rep.module)
        key = str(lab)
        if key in counts:
            counts[key] = (lab, counts[key][1] + mult)
        else:
            counts[key] = (lab, mult)
    return [counts[k] for k in sorted(counts)]


def verify_hom_bounds(tower: TowerRing, dim_cap: int):
    """Construct every label of flattened dimension <= cap and check
    dim Hom(L_n, -) <= 1; returns (rows, the labels over the bound)."""
    l_top = tower.bimodules[tower.height]
    rows = []
    for lab in all_labels(tower, dim_cap=dim_cap):
        m = construct_label(tower, lab)
        rows.append((str(lab), m.dim, len(hom_space(l_top, m))))
    return rows, [lab for lab, _, d in rows if d > 1]
