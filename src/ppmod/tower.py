"""Iterated one-point extensions of the truncated valuation ring.

The tower R_0 = k[x]/(x^N), R_{i+1} = triangular extension of R_i by the
bimodule L_i (L_0 the unique simple, L_{i+1} its image under the second
embedding functor).  Modules over R_{i+1} are equivalent to triples
(M_0, M_1, Gamma) with Gamma: M_0 -> Hom(L_i, M_1); both forms are kept,
with a verified round trip.  The classifier identifies every finitely
presented module by a label in the grammar

    T(n)  |  F0^a F1^b Ind(j)  |  F0^a F1^b T(m)

with exponent sums matching the tower height; the empirical redundancy
T(0) = Ind(1) is canonicalized away.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FDAlgebra, truncated_dvr
from .catalog import dvr_chain_module
from .decompose import decompose
from .errors import HorizonExceeded, UnclassifiedSummand
from .fields import Field
from .linalg import Matrix, Subspace, block, vectorized
from .modules import (Module, ModuleMap, hom_space, iso_test,
                      regular_module, submodule, _module_span)


def one_point_extension(base: FDAlgebra, bimodule: Module,
                        eps_label: str) -> FDAlgebra:
    """The triangular matrix ring (base 0 / bimodule k)."""
    f = base.field
    r, s = base.dim, bimodule.dim
    dim = r + s + 1
    z = f.zero()

    def vec(part, coords):
        v = [z] * dim
        if part == "r":
            for i, c in enumerate(coords):
                v[i] = c
        elif part == "l":
            for i, c in enumerate(coords):
                v[r + i] = c
        else:
            v[r + s] = coords
        return tuple(v)

    zero = (z,) * dim
    table = []
    for i in range(dim):
        row = []
        for j in range(dim):
            if i < r and j < r:
                row.append(vec("r", base.table[i][j]))
            elif r <= i < r + s and j < r:
                li = [z] * s
                li[i - r] = f.one()
                img = bimodule.apply(li, base.basis_el(j))
                row.append(vec("l", img))
            elif i == r + s and r <= j < r + s:
                lj = [z] * s
                lj[j - r] = f.one()
                row.append(vec("l", lj))
            elif i == r + s and j == r + s:
                row.append(vec("e", f.one()))
            else:
                row.append(zero)
        table.append(tuple(row))
    labels = list(base.labels) + \
        [f"{bimodule.label or 'l'}~{i}" for i in range(s)] + [eps_label]
    unit = list(base.unit) + [z] * s
    unit.append(f.one())
    return FDAlgebra(f, labels, table, unit,
                     name=f"{base.name}[{bimodule.label}]")


class TowerRing:
    """The chain R_0 .. R_n with bimodules, simples and idempotents."""

    def __init__(self, N: int, height: int, field: Field):
        if N < 1 or height < 0:
            raise ValueError("need horizon N >= 1 and height >= 0")
        self.N = N
        self.height = height
        self.field = field
        self.algebras: list[FDAlgebra] = [truncated_dvr(N, field)]
        self.bimodules: list[Module] = [dvr_chain_module(self.algebras[0], 1)]
        # (level, id(m)) -> (m, F1(m), basis of Hom(L, m)); m is kept so
        # that its id is not reused
        self._f1_cache: dict = {}
        self.bimodules[0].label = "L0"
        for i in range(height):
            alg = one_point_extension(self.algebras[i], self.bimodules[i],
                                      eps_label=f"eps{i + 1}")
            self.algebras.append(alg)
            nxt = f1(self, i + 1, self.bimodules[i])
            nxt.label = f"L{i + 1}"
            self.bimodules.append(nxt)
        self._check_shape()
        self._label_cache: dict = {}

    def _check_shape(self):
        for i, l in enumerate(self.bimodules):
            if l.dim != i + 1:
                raise AssertionError("bimodule dimension drifted")
        n = self.height
        if self.top.dim != tower_dimension(self.N, n):
            raise AssertionError("tower dimension formula violated")
        for lvl in range(1, n + 1):
            alg = self.algebras[lvl]
            ids = [self.c_idem(lvl)] + [self.e_idem(lvl, i)
                                        for i in range(1, lvl + 1)]
            total = alg.zero_el()
            for v in ids:
                total = alg.add_el(total, v)
            if total != alg.unit:
                raise AssertionError("idempotents do not sum to the unit")
            for i, u in enumerate(ids):
                for j, v in enumerate(ids):
                    prod = alg.mul_el(u, v)
                    want = u if i == j else alg.zero_el()
                    if prod != want:
                        raise AssertionError("idempotents not orthogonal")

    @property
    def top(self) -> FDAlgebra:
        return self.algebras[self.height]

    def embed_el(self, el, from_level: int, to_level: int):
        """Coordinate embedding R_i -> R_j along the tower inclusions."""
        v = tuple(el)
        for lvl in range(from_level, to_level):
            v = v + (self.field.zero(),) * (self.algebras[lvl + 1].dim -
                                            self.algebras[lvl].dim)
        return v

    def c_idem(self, level: int):
        """The idempotent cutting out the valuation-ring corner."""
        return self.embed_el(self.algebras[0].unit, 0, level)

    def e_idem(self, level: int, i: int):
        """The i-th extension idempotent (1 <= i <= level)."""
        if not (1 <= i <= level):
            raise ValueError("extension idempotent index out of range")
        alg_i = self.algebras[i]
        z = self.field.zero()
        v = [z] * alg_i.dim
        v[alg_i.dim - 1] = self.field.one()
        return self.embed_el(tuple(v), i, level)


def tower_dimension(N: int, height: int) -> int:
    """Dimension of the top ring R_height of the tower of horizon N."""
    return N + height * (height + 3) // 2


def build_tower(N: int, height: int, field: Field) -> TowerRing:
    return TowerRing(N, height, field)


# -- triples -------------------------------------------------------------


@dataclass
class Triple:
    """(M_0, M_1, Gamma) over R_level; gamma[r] is the matrix of the map
    the r-th basis vector of M_0 is sent to in Hom(L_{level-1}, M_1)."""

    tower: TowerRing
    level: int
    m0: int
    m1: Module
    gamma: list[Matrix]

    def __post_init__(self):
        if not (1 <= self.level <= self.tower.height):
            raise ValueError("triple level out of range")
        l_mod = self.tower.bimodules[self.level - 1]
        for g in self.gamma:
            ModuleMap(l_mod, self.m1, g)  # validates the intertwining
        if len(self.gamma) != self.m0:
            raise ValueError("need one hom per basis vector of M_0")

    def flatten(self) -> Module:
        """The module over R_level on coordinates [M_0 | M_1]."""
        tower, lvl = self.tower, self.level
        alg = tower.algebras[lvl]
        l_dim = tower.bimodules[lvl - 1].dim
        f = tower.field
        d1 = self.m1.dim
        bands = [self.m0, d1]
        # row r of the vectorized gammas holds gamma[r]'s rows side by side
        gam = vectorized(f, self.gamma, l_dim * d1)
        action = [block(f, bands, bands, {(1, 1): a}) for a in self.m1.action]
        action += [block(f, bands, bands,
                         {(0, 1): gam.take_cols(range(j * d1, (j + 1) * d1))})
                   for j in range(l_dim)]
        action.append(block(f, bands, bands,
                            {(0, 0): Matrix.identity(f, self.m0)}))
        return Module(alg, self.m0 + d1, action, check=False)

    @staticmethod
    def from_module(tower: TowerRing, level: int, x: Module) -> "Triple":
        """Recover the triple from any module over R_level."""
        alg = tower.algebras[level]
        base = tower.algebras[level - 1]
        l_dim = tower.bimodules[level - 1].dim
        if x.algebra is not alg:
            raise ValueError("module is not over the expected tower level")
        f = tower.field
        e_mat = x.act(alg.basis_el(alg.dim - 1))
        s0 = Subspace.from_matrix(x.dim, e_mat)
        s1 = Subspace.from_matrix(x.dim, x.act(alg.unit) - e_mat)
        b1, pivots = s1.basis, s1.pivots
        m1_action = [
            (b1 * x.act(tower.embed_el(base.basis_el(bidx), level - 1,
                                       level))).take_cols(pivots)
            for bidx in range(base.dim)]
        m1 = Module(base, s1.dim, m1_action, check=False)
        # row r of imgs is s0 row r pushed through each bimodule basis
        # element, side by side: gamma[r] vectorized
        acts = block(f, [x.dim], [x.dim] * l_dim,
                     {(0, j): x.act(alg.basis_el(base.dim + j))
                      for j in range(l_dim)})
        imgs = (s0.basis * acts).take_cols(
            [j * x.dim + p for j in range(l_dim) for p in pivots])
        gamma = [imgs.take_rows((r,)).reshape(l_dim, s1.dim)
                 for r in range(s0.dim)]
        return Triple(tower, level, s0.dim, m1, gamma)


# -- the three functors ------------------------------------------------------


def f0(tower: TowerRing, level: int, m: Module) -> Module:
    """(0, M, 0): the first full and faithful embedding, one level up."""
    if not (1 <= level <= tower.height):
        raise ValueError("level out of range")
    if m.algebra is not tower.algebras[level - 1]:
        raise ValueError("module is not one level below")
    alg = tower.algebras[level]
    base = tower.algebras[level - 1]
    f = tower.field
    z = Matrix.zero(f, m.dim, m.dim)
    action = []
    for bidx in range(alg.dim):
        if bidx < base.dim:
            action.append(m.action[bidx])
        else:
            action.append(z)
    out = Module(alg, m.dim, action, check=False)
    out.label = f"F0({m.label})" if m.label else ""
    return out


def f1(tower: TowerRing, level: int, m: Module) -> Module:
    """(Hom(L, M), M, id): the second full and faithful embedding."""
    return _f1_with_homs(tower, level, m)[0]


def _f1_with_homs(tower: TowerRing, level: int, m: Module):
    """F1(m) and the basis of Hom(L, m) it is built from, computed once per
    (level, module) of the tower."""
    hit = tower._f1_cache.get((level, id(m)))
    if hit is not None:
        return hit[1:]
    if not (1 <= level <= tower.height):
        raise ValueError("level out of range")
    if m.algebra is not tower.algebras[level - 1]:
        raise ValueError("module is not one level below")
    homs = [h.mat for h in hom_space(tower.bimodules[level - 1], m)]
    out = Triple(tower, level, len(homs), m, homs).flatten()
    out.label = f"F1({m.label})" if m.label else ""
    tower._f1_cache[(level, id(m))] = (m, out, homs)
    return out, homs


def f0_map(tower: TowerRing, level: int, fmap: ModuleMap) -> ModuleMap:
    return ModuleMap(f0(tower, level, fmap.source),
                     f0(tower, level, fmap.target), fmap.mat, check=False)


def f1_map(tower: TowerRing, level: int, fmap: ModuleMap) -> ModuleMap:
    """Block action on (Hom(L, X), X): post-composition on the hom part."""
    f = tower.field
    sx, hx = _f1_with_homs(tower, level, fmap.source)
    sy, hy = _f1_with_homs(tower, level, fmap.target)
    # h . f over the target hom basis, one row of coefficients per h
    width = tower.bimodules[level - 1].dim * fmap.target.dim
    coeffs = vectorized(f, hy, width).solve_left(
        vectorized(f, [h * fmap.mat for h in hx], width))
    if coeffs is None:
        raise ValueError("composition left the hom space span")
    mat = block(f, [len(hx), fmap.source.dim], [len(hy), fmap.target.dim],
                {(0, 0): coeffs, (1, 1): fmap.mat})
    return ModuleMap(sx, sy, mat, check=False)


def forget(tower: TowerRing, level: int, x: Module) -> Module:
    """The underlying module one level down."""
    return Triple.from_module(tower, level, x).m1


def lift(tower: TowerRing, x, level: int, b: int, a: int):
    """F0^a F1^b of a module or a map over R_level: F1 at the next b
    levels, then F0 at the next a levels."""
    up1, up0 = (f1_map, f0_map) if isinstance(x, ModuleMap) else (f1, f0)
    for lvl in range(level + 1, level + b + a + 1):
        x = (up1 if lvl <= level + b else up0)(tower, lvl, x)
    return x


def natural_embedding(tower: TowerRing, level: int, m: Module) -> ModuleMap:
    """The canonical embedding (0, id): F0 M -> F1 M."""
    src = f0(tower, level, m)
    tgt = f1(tower, level, m)
    mat = Matrix.identity(tower.field, tgt.dim).take_rows(
        range(tgt.dim - m.dim, tgt.dim))
    return ModuleMap(src, tgt, mat, check=True)


def t_module(tower: TowerRing, m: int) -> Module:
    """The simple concentrated at the extension vertex of level m; at level
    0 this is the valuation simple (the grammar's T(0) = Ind(1))."""
    if not (0 <= m <= tower.height):
        raise ValueError(f"T({m}) outside the tower levels 0..{tower.height}")
    if m == 0:
        return dvr_chain_module(tower.algebras[0], 1)
    alg = tower.algebras[m]
    f = tower.field
    one = Matrix.identity(f, 1)
    z = Matrix.zero(f, 1, 1)
    action = [z] * alg.dim
    action[alg.dim - 1] = one
    # the unit acts as identity because unit = unit_base + eps
    mod = Module(alg, 1, action, check=True)
    mod.label = f"T({m})"
    return mod


# -- labels and classification -------------------------------------------------


@dataclass(frozen=True)
class FpLabel:
    """Classification label: F0^a F1^b applied to Ind(j) or T(m)."""

    a: int
    b: int
    base: tuple  # ("Ind", j) or ("T", m)

    def __str__(self):
        kind, idx = self.base
        if kind == "T" and self.a == 0 and self.b == 0:
            return f"T({idx})"
        return f"F0^{self.a} F1^{self.b} {kind}({idx})"


def canonical_label(lab: FpLabel) -> FpLabel:
    """Apply the empirical redundancy table: T(0) is the valuation simple."""
    if lab.base == ("T", 0):
        return FpLabel(lab.a, lab.b, ("Ind", 1))
    return lab


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


def all_labels(tower: TowerRing, dim_cap: int | None = None,
               canonical_only: bool = True) -> list[FpLabel]:
    """Every label at the tower height, optionally canonical and capped."""
    n = tower.height
    out = []
    for a in range(n + 1):
        b = n - a
        for j in range(1, tower.N + 1):
            out.append(FpLabel(a, b, ("Ind", j)))
    for m in range(n + 1):
        for a in range(n - m + 1):
            b = n - m - a
            out.append(FpLabel(a, b, ("T", m)))
    if canonical_only:
        seen = {}
        for lab in out:
            c = canonical_label(lab)
            seen[str(c)] = c
        out = list(seen.values())
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
            raise UnclassifiedSummand(u, "level-0 summand not a chain module")
        return FpLabel(0, 0, ("Ind", j))
    tri = Triple.from_module(tower, level, u)
    if tri.m1.dim == 0:
        if tri.m0 == 1:
            return FpLabel(0, 0, ("T", level))
        raise UnclassifiedSummand(u, "extension part not simple")
    if tri.m0 == 0:
        inner = identify_indecomposable(tower, level - 1, tri.m1)
        return canonical_label(FpLabel(inner.a + 1, inner.b, inner.base))
    rebuilt = f1(tower, level, tri.m1)
    if iso_test(u, rebuilt) is None:
        raise UnclassifiedSummand(u, "not isomorphic to the F1 of its core")
    inner = identify_indecomposable(tower, level - 1, tri.m1)
    if inner.a != 0:
        raise UnclassifiedSummand(u, "F1 wraps an F0 layer; impossible shape")
    return canonical_label(FpLabel(0, inner.b + 1, inner.base))


def classify(tower: TowerRing, x: Module,
             level: int | None = None) -> list[tuple[FpLabel, int]]:
    """Classification of any module at the tower height (or a stated level)
    as a multiset of labels, sorted by label text."""
    lvl = tower.height if level is None else level
    counts: dict[str, tuple[FpLabel, int]] = {}
    for rep, mult, _ in decompose(x).classes:
        lab = identify_indecomposable(tower, lvl, rep.module)
        key = str(lab)
        if key in counts:
            counts[key] = (lab, counts[key][1] + mult)
        else:
            counts[key] = (lab, mult)
    return [counts[k] for k in sorted(counts)]


def verify_hom_bounds(tower: TowerRing, dim_cap: int):
    """Construct every label of flattened dimension <= cap and check
    dim Hom(L_n, -) <= 1; returns (all_ok, rows)."""
    n = tower.height
    l_top = tower.bimodules[n]
    rows = []
    ok = True
    for lab in all_labels(tower, dim_cap=dim_cap):
        m = construct_label(tower, lab)
        d = len(hom_space(l_top, m))
        rows.append((str(lab), m.dim, d))
        if d > 1:
            ok = False
    return ok, rows


def redundancy_table(tower: TowerRing, dim_cap: int = 12) -> dict[str, str]:
    """Empirical identification table among raw labels: maps the text of a
    non-canonical label to the canonical one it is isomorphic to.  Verifies
    that canonical labels are pairwise non-isomorphic."""
    raw = all_labels(tower, canonical_only=False)
    mods = [(lab, construct_label(tower, canonical_label(lab))) for lab in raw
            if construct_label(tower, canonical_label(lab)).dim <= dim_cap]
    table: dict[str, str] = {}
    canon: list[tuple[FpLabel, Module]] = []
    for lab, m in mods:
        clab = canonical_label(lab)
        if str(clab) != str(lab):
            table[str(lab)] = str(clab)
        if not any(str(c[0]) == str(clab) for c in canon):
            canon.append((clab, m))
    for i in range(len(canon)):
        for j in range(i + 1, len(canon)):
            mi, mj = canon[i][1], canon[j][1]
            if iso_test(mi, mj) is not None:
                raise AssertionError(
                    f"canonical labels {canon[i][0]} and {canon[j][0]} "
                    f"are isomorphic; grammar redundancy discovered")
    return table


def left_projectives(tower: TowerRing) -> list[tuple[str, Module]]:
    """The indecomposable projective left modules (as right modules over the
    opposite algebra), one per tower idempotent."""
    alg = tower.top
    op_reg = regular_module(alg.op)
    out = []
    names = [("c", tower.c_idem(tower.height))] + \
        [(f"e{i}", tower.e_idem(tower.height, i))
         for i in range(1, tower.height + 1)]
    for name, idem in names:
        span = _module_span(op_reg, [list(idem)])
        sub, _ = submodule(op_reg, span, check=False)
        sub.label = f"P[{name}]"
        out.append((name, sub))
    return out
