"""Catalog of concrete modules used as test universes.

Universal claims in this package are always checked against an explicit,
reproducible list of modules; this module is that list.
"""

from __future__ import annotations

import itertools
import random

from .algebra import KRONECKER_PATHS, FDAlgebra, dvr_paths
from .linalg import Matrix
from .modules import (Module, direct_sum, free_module, quiver_rep,
                      quotient_module, _module_span)
from .ppformula import PpFormula, divisibility, pp_sum


# -- modules over k[x]/(x^N) -------------------------------------------


def dvr_chain_module(alg: FDAlgebra, j: int) -> Module:
    """V/m^j over k[x]/(x^N): x acts as the nilpotent shift of order j."""
    N = alg.dim
    if alg.paths != dvr_paths(N):
        raise ValueError(f"chain modules need k[x]/(x^N) on the basis 1, x, "
                         f"..., x^(N-1); {alg.name} is not")
    if not (1 <= j <= N):
        raise ValueError(f"chain length {j} outside 1..{N}")
    arrows = {"x": _shift(alg.field, j)} if N > 1 else {}  # k[x]/(x): none
    return quiver_rep(alg, {0: j}, arrows, label=f"V/m^{j}")


def _shift(f, n: int) -> Matrix:
    """The n x n nilpotent shift, e_r -> e_{r+1} on row vectors."""
    return Matrix.identity(f, n + 1).take_rows(range(1, n + 1)).take_cols(
        range(n))


def dvr_universe(alg: FDAlgebra, dim_cap: int) -> list[Module]:
    """All modules over k[x]/(x^N) of dimension <= dim_cap, up to iso:
    direct sums of chain modules, one per partition with parts <= N."""
    N = alg.dim
    chains = {j: dvr_chain_module(alg, j) for j in range(1, N + 1)}
    out = []
    for total in range(1, dim_cap + 1):
        for part in _partitions(total, min(N, total)):
            mods = [chains[p] for p in part]
            if len(mods) == 1:
                out.append(mods[0])
            else:
                s, _, _ = direct_sum(mods, label="+".join(m.label for m in mods))
                out.append(s)
    return out


def _partitions(n: int, max_part: int):
    if n == 0:
        yield ()
        return
    for p in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - p, p):
            yield (p,) + rest


# -- Kronecker representations -------------------------------------------


def kronecker_rep(alg: FDAlgebra, d1: int, d2: int, amat, bmat,
                  label: str = "") -> Module:
    """Right module from representation data: two d1 x d2 matrices for the
    arrows of 1 => 2, vertex-1 coordinates first.  alg must have the
    Kronecker algebra's paths, not only its labels (its opposite has
    those, with the arrows reversed)."""
    if alg.paths != KRONECKER_PATHS:
        raise ValueError(f"{alg.name} is not the Kronecker algebra on the "
                         f"basis e1, e2, a, b")
    return quiver_rep(alg, {1: d1, 2: d2}, {"a": amat, "b": bmat},
                      label=label)


def kronecker_preprojective(alg: FDAlgebra, i: int) -> Module:
    """Preprojective of dimension vector (i, i+1); PP(0) and PP(1) are the
    indecomposable projectives at vertices 2 and 1."""
    ident = Matrix.identity(alg.field, i + 1)
    return kronecker_rep(alg, i, i + 1, ident.take_rows(range(i)),
                         ident.take_rows(range(1, i + 1)), label=f"PP({i})")


def kronecker_preinjective(alg: FDAlgebra, i: int) -> Module:
    """Preinjective of dimension vector (i+1, i)."""
    ident = Matrix.identity(alg.field, i + 1)
    return kronecker_rep(alg, i + 1, i, ident.take_cols(range(i)),
                         ident.take_cols(range(1, i + 1)), label=f"PI({i})")


def kronecker_regular(alg: FDAlgebra, lam, n: int) -> Module:
    """Regular module of quasi-length n in the tube at lam (a field element
    or the string 'inf')."""
    f = alg.field
    ident = Matrix.identity(f, n)
    shift = _shift(f, n)
    if lam == "inf":
        return kronecker_rep(alg, n, n, shift, ident, label=f"R(inf)[{n}]")
    jordan = shift + ident.scale(lam)
    return kronecker_rep(alg, n, n, ident, jordan, label=f"R({lam})[{n}]")


def kronecker_indecomposables(alg: FDAlgebra, dim_cap: int) -> list[Module]:
    """Preprojectives, preinjectives and the regular modules of the tubes
    at lam in k and at inf, of dimension <= dim_cap.  Over a finite field
    that is every indecomposable only up to dimension 3: from dimension 4
    on, the tubes at closed points of degree >= 2 are missing.  Over QQ the
    tubes are a sample, at lam in {0, 1, inf}."""
    f = alg.field
    out = []
    for i in range((dim_cap + 1) // 2):  # dimension 2i + 1
        out += [kronecker_preprojective(alg, i), kronecker_preinjective(alg, i)]
    lams = list(f.elements()) if f.p is not None else [f.of(0), f.of(1)]
    for n in range(1, dim_cap // 2 + 1):  # dimension 2n
        out += [kronecker_regular(alg, lam, n) for lam in [*lams, "inf"]]
    return out


def kronecker_universe(alg: FDAlgebra, dim_cap: int) -> list[Module]:
    """Kronecker modules of dimension <= dim_cap up to iso: the direct sums
    of the modules of kronecker_indecomposables, so every module only up to
    dimension 3 over a finite field, and a sample over QQ."""
    indecs = kronecker_indecomposables(alg, dim_cap)
    out = []
    for size in range(1, dim_cap + 1):
        for mods in itertools.combinations_with_replacement(indecs, size):
            if sum(m.dim for m in mods) > dim_cap:
                continue
            out.append(mods[0] if size == 1 else direct_sum(list(mods))[0])
    return out


# -- random modules ----------------------------------------------------------


def kronecker_step_formula(alg: FDAlgebra, t: int):
    """The t-th member of the strictly descending chain between e2 | x and
    the b-divisibility formula on the Kronecker algebra:

        t = 0:  e2 | x
        t >= 1: (exists y1..yt: x = y1 a, y1 b = y2 a, ..., ) + (b | x)
    """
    if t == 0:
        return divisibility(alg, alg.el_from_label("e2"))
    na = alg.neg_el(alg.el_from_label("a"))
    b = alg.el_from_label("b")
    # x - y1 a = 0, then y_{i-1} b - y_i a = 0 for i = 2..t
    cells = {(0, 0): alg.unit, (1, 0): na}
    for i in range(2, t + 1):
        cells.update({(i - 1, i - 1): b, (i, i - 1): na})
    theta = PpFormula.from_cells(alg, 1, t, t, cells)
    return pp_sum(theta, divisibility(alg, b))


def random_quotient_of_free(alg: FDAlgebra, rank: int, rng: random.Random,
                            dim_cap: int) -> Module:
    """Seeded random nonzero quotient of A^rank of dimension at most
    dim_cap."""
    f = alg.field
    free = free_module(alg, rank)
    pool = list(f.elements()) if f.p is not None else [f.of(v) for v in (-1, 0, 1)]
    for _ in range(200):
        nvec = rng.randint(1, max(1, free.dim // 2))
        vecs = [[rng.choice(pool) for _ in range(free.dim)] for _ in range(nvec)]
        sub = _module_span(free, vecs)
        d = free.dim - sub.dim
        if 1 <= d <= dim_cap:
            q, _ = quotient_module(free, sub)
            q.label = f"rand(d={d})"
            return q
    raise RuntimeError("could not sample a quotient within the dimension bounds")
