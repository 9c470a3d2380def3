"""Concrete realization of the ray-tube ladder inside a tower module
category, with every defining square verified exactly.

A RealizedTube is a translation quiver with a module per vertex and a
module map per arrow, keyed by the quiver's own names.  realize_in_tower
builds Q(1; n) in the height-n tower: at S(0,l,j) sits P^l_j =
F0^{n-l} F1^l (V/m^j), for depth 0 <= l <= n and stage j, whose depth-0
row is the stage row M_j = P^0_j.  Maps are lifted through F1 only: F0
pads the action and keeps a map's matrix, so a map over R_l is the same
matrix between the F0 lifts of its ends.  mu(0,l,j) is the horizontal
map psibar^l_j: P^l_j -> P^l_{j+1} (psi_j, the chain inclusion, at depth
0), f1_map of psibar^{l-1}_j, one F1 step per depth; lam(0,l-1,j) is the
level embedding alpha^l_j, the canonical F0 -> F1 map's matrix; the rim
arrow lam(0,n,j+1) is f_j: P^n_{j+1} -> M_j, uniquely determined by its
two defining equations.  The epi phi_j: M_{j+1} -> M_j, the chain
quotient, is not stored: it is the rim walk lam^{n+1} from S(0,0,j+1).

realize_in_tower checks the stage-row squares tube[j] from M_0 = 0, so
tube[1] is the exact sequence 0 -> M_1 -> M_2 -> M_1 -> 0.  The ladder
and rim squares are the quiver's mesh rules, checked once each by
_verify_squares, which reads nothing of the tower (a ZERO rule as a
composite that vanishes): the functor on paths descends to the mesh
category, and every word realizes to its normal form's map.

The stage bimodule X = M_J (+) P^1_1 (+) ... (+) P^n_1 is certified
projective as a left module of the tower at horizon J by its top: the
top's multiplicities, and a projective cover of X's dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .catalog import dvr_chain_module
from .errors import HorizonExceeded, SquareFailed
from .linalg import Matrix, vectorized
from .modules import (Module, ModuleMap, direct_sum, identity_map, quiver_rep,
                      top_of, zero_map)
from .tower import TowerRing, build_tower, f1_map, lift, natural_embedding
from .tube import (Arrow, NormalPath, TranslationQuiver, ZERO,
                   normal_path_arrows, normalize_path)


def chain_inclusion(alg, j: int) -> ModuleMap:
    """V/m^j -> V/m^{j+1}, the image being the maximal submodule."""
    src = dvr_chain_module(alg, j)
    tgt = dvr_chain_module(alg, j + 1)
    mat = Matrix.identity(alg.field, j + 1).take_rows(range(1, j + 1))
    return ModuleMap(src, tgt, mat, check=True)


def chain_quotient(alg, j: int) -> ModuleMap:
    """V/m^{j+1} -> V/m^j, killing the socle of the source."""
    src = dvr_chain_module(alg, j + 1)
    tgt = dvr_chain_module(alg, j)
    mat = Matrix.identity(alg.field, j + 1).take_cols(range(j))
    return ModuleMap(src, tgt, mat, check=True)


def square_failures(top: ModuleMap, left: ModuleMap, right: ModuleMap,
                    bottom: ModuleMap) -> list[str]:
    """Which of commutes, left_exact, right_exact and middle_exact fail
    for 0 -> A -> B (+) C -> D -> 0 on the square

            A --top--> B
            |          |
          left       right
            v          v
            C -bottom-> D

    It is a pushout and a pullback iff none fails.  ValueError when the
    two maps at a corner meet it in different algebras or actions."""
    for u, v in ((top.source, left.source), (top.target, right.source),
                 (left.target, bottom.source), (right.target, bottom.target)):
        if u is not v and (u.algebra, u.action) != (v.algebra, v.action):
            raise ValueError("square corners disagree")
    a = top.source
    first = top.mat.hstack(left.mat)                    # A -> B (+) C
    second = right.mat.vstack(-bottom.mat)              # B (+) C -> D
    # first * second = top right - left bottom: the square commutes iff
    # the sequence's composite is zero
    return [name for name, holds in (
        ("commutes", (first * second).is_zero()),
        ("left_exact", first.rank() == a.dim),
        ("right_exact", second.rank() == right.target.dim),
        ("middle_exact", top.target.dim + left.target.dim ==
         a.dim + right.target.dim)) if not holds]


@dataclass
class RealizedTube:
    """A translation quiver realized in modules: a module per vertex, a
    map per arrow, and the names of the squares verified, in order."""

    quiver: TranslationQuiver
    modules: dict = field(default_factory=dict)  # vertex -> Module
    maps: dict = field(default_factory=dict)     # Arrow -> ModuleMap
    checked_squares: list = field(default_factory=list)

    def realize_arrow(self, a: Arrow) -> ModuleMap:
        """An arrow of the quiver as its map; ValueError for any other
        arrow."""
        self.quiver.target(a)
        return self.maps[a]

    def realize_normal_path(self, np) -> ModuleMap:
        if np == ZERO:
            raise ValueError("zero has no single realization; compare is_zero")
        arrows = normal_path_arrows(self.quiver, np)
        out = identity_map(self.modules[np.start])
        for a in arrows:
            out = out.then(self.maps[a])
        return out


def realize_in_tower(tower: TowerRing, stages: int) -> RealizedTube:
    """Realize Q(1; n), n the tower's height, at horizon stages + 1 and
    verify every defining square as a pushout and pullback; needs
    stages + 1 < horizon headroom (stage modules use chain length
    stages + 1)."""
    if stages < 1:
        raise ValueError("need at least one stage")
    if stages >= tower.N:
        raise HorizonExceeded(
            f"stages {stages} need chain modules beyond the horizon {tower.N}")
    n = tower.height
    alg0 = tower.algebras[0]
    rt = RealizedTube(TranslationQuiver(1, (n,), stages + 1))
    P = rt.modules

    # F0 keeps a map's matrix, so each map is its matrix over R_l, the
    # ring of its last F1, rewrapped between the ladder modules
    for j in range(1, stages + 2):
        core = dvr_chain_module(alg0, j)  # F1^l (V/m^j), over R_l
        for l in range(n + 1):
            if l:
                eta = natural_embedding(tower, l, core)
                core = eta.target
            p = P[(0, l, j)] = lift(tower, core, l, 0, n - l)
            p.label = f"P^{l}_{j}" if l else f"M{j}"
            if l:
                rt.maps[Arrow("lam", 0, l - 1, j)] = ModuleMap(
                    P[(0, l - 1, j)], p, eta.mat, check=True)

    for j in range(1, stages + 1):
        psi = chain_inclusion(alg0, j)  # F1^l of it, over R_l
        for l in range(n + 1):
            if l:
                psi = f1_map(tower, l, psi)
            rt.maps[Arrow("mu", 0, l, j)] = ModuleMap(
                P[(0, l, j)], P[(0, l, j + 1)], psi.mat, check=True)

    _complete_f_maps(rt, alg0)
    _verify_stage_row(rt)
    _verify_squares(rt)
    rt.checked_squares.append("coker[psi_1]")
    return rt


def _mesh_rule(q: TranslationQuiver, mu: Arrow):
    """The mesh rule at mu: the lam after it, and the normal form of
    mu;lam (ZERO, or a NormalPath lam';mu')."""
    lam = q.out_lam(q.target(mu))
    return lam, normalize_path(q, q.source(mu), (mu, lam))


def _complete_f_maps(rt: RealizedTube, alg0):
    """Solve for the rim maps f_j = lam(0,n,j+1): P^n_{j+1} -> M_j from
    their two defining equations: f_j after the level walk M_{j+1} ->
    P^n_{j+1} is phi_j, the chain quotient over alg0, and f_j after
    psibar^n_j is the realized right side of the rim mesh rule at
    mu(0,n,j) (zero at j = 1, where the rule is ZERO).  The rim walk
    lam^{n+1} from M_{j+1} then realizes phi_j."""
    q, P = rt.quiver, rt.modules
    n = q.ray_lengths[0]
    for j in range(1, q.horizon):
        mu = Arrow("mu", 0, n, j)
        _, rhs = _mesh_rule(q, mu)
        rim = Matrix.zero(alg0.field, P[(0, n, j)].dim, P[(0, 0, j)].dim) \
            if rhs == ZERO else rt.realize_normal_path(rhs).mat
        walk = rt.realize_normal_path(NormalPath((0, 0, j + 1), n, 0))
        sol = walk.mat.vstack(rt.maps[mu].mat).solve_right(
            chain_quotient(alg0, j).mat.vstack(rim))
        if sol is None:
            raise SquareFailed(f"f[{j}]", "rim completion system inconsistent")
        rt.maps[Arrow("lam", 0, n, j + 1)] = ModuleMap(
            P[(0, n, j + 1)], P[(0, 0, j)], sol, check=True)


def _check(rt: RealizedTube, name: str, top, left, right, bottom):
    """Verify one square as a pushout and pullback, and record its name."""
    failed = square_failures(top, left, right, bottom)
    if failed:
        raise SquareFailed(name, ", ".join(failed))
    rt.checked_squares.append(name)


def _verify_stage_row(rt: RealizedTube):
    """The stage-row squares tube[j] from M_0 = 0, phi_j the rim walk from
    M_{j+1}: tube[1] is the exact sequence 0 -> M_1 -> M_2 -> M_1 -> 0, so
    the cokernel of psi_1 is M_1."""
    n, J = rt.quiver.ray_lengths[0], rt.quiver.horizon - 1
    m1 = rt.modules[(0, 0, 1)]
    m0 = quiver_rep(m1.algebra, {}, {})
    phi = [zero_map(m1, m0)] + [
        rt.realize_normal_path(NormalPath((0, 0, j + 1), n + 1, 0))
        for j in range(1, J + 1)]
    psi = [zero_map(m0, m1)] + [rt.maps[Arrow("mu", 0, 0, j)]
                                for j in range(1, J + 1)]
    for j in range(1, J + 1):
        _check(rt, f"tube[{j}]", phi[j - 1], psi[j], psi[j - 1], phi[j])


def _verify_squares(rt: RealizedTube):
    """One square per mesh rule: the ladder squares at depth k + 1 and the
    rim squares, a ZERO rule as a composite that vanishes."""
    q, R, n = rt.quiver, rt.realize_arrow, rt.quiver.ray_lengths[0]
    for mu in q.arrows():
        if mu.kind != "mu":
            continue
        name = f"ladder[{mu.k + 1},{mu.j}]" if mu.k < n else f"rim[{mu.j}]"
        lam, rhs = _mesh_rule(q, mu)
        if rhs == ZERO:
            if not (R(mu).mat * R(lam).mat).is_zero():
                raise SquareFailed(name, "mu;lam does not vanish")
            continue
        lam2, mu2 = normal_path_arrows(q, rhs)
        _check(rt, name, R(mu), R(lam2), R(lam), R(mu2))


# -- the stage bimodule and its projectivity ----------------------------------


def stage_bimodule(rt: RealizedTube) -> Module:
    """The stage-J surrogate of the limit bimodule: X = M_J (+) P^1_1 (+)
    ... (+) P^n_1 with its left action of the height-n tower built at
    horizon J, returned as a module over that tower's opposite algebra.

    The left action is the representation of the opposite tower quiver
    with M_J at vertex 0 and P^l_1 at vertex l: x acts as on M_J, b_l as
    alpha^l_1 = lam(0,l-1,1) and b_1 as beta_1 = alpha^1_1 u_1, where
    u_1: M_J -> M_1 is the rim walk of (n+1)(J-1) steps, so beta_1 is
    that walk one lam further.  It is checked to commute with X's right
    action, and the left tower to embed into End(X)."""
    q = rt.quiver
    n, J = q.ray_lengths[0], q.horizon - 1
    mj = rt.modules[(0, 0, J)]
    f = mj.algebra.field
    left_tower = build_tower(J, n, f)

    comps = [mj] + [rt.modules[(0, l, 1)] for l in range(1, n + 1)]
    x_mod = direct_sum(comps, label="stage_bimodule")[0]

    arrows = {f"b{l}": rt.maps[Arrow("lam", 0, l - 1, 1)].mat
              for l in range(2, n + 1)}
    if n >= 1:
        arrows["b1"] = rt.realize_normal_path(
            NormalPath((0, 0, J), (n + 1) * (J - 1) + 1, 0)).mat
    if J > 1:  # k[x]/(x) has no arrow x
        arrows["x"] = mj.act(mj.algebra.el_from_label("x"))
    left_mod = quiver_rep(left_tower.top.op, dict(enumerate(
        c.dim for c in comps)), arrows, label="stage_bimodule_left")
    # bimodule condition: every left action matrix is a right-module map
    for a in left_mod.action:
        ModuleMap(x_mod, x_mod, a, check=True)
    # ring embedding: the left action matrices are linearly independent
    if vectorized(f, left_mod.action, x_mod.dim ** 2).rank() != \
            left_tower.top.dim:
        raise AssertionError("left tower does not embed into the endomorphisms")
    return left_mod


def bimodule_failures(rt: RealizedTube) -> tuple[list[int], list[str]]:
    """Certify the stage bimodule X projective as a left module, with the
    dimension-difference multiplicities, from its top; returns the
    multiplicities found and what failed.

    The top X / X rad holds m_v copies of the simple at vertex v, read
    by top_of.  By Nakayama's lemma X is a quotient of its projective
    cover, the sum of m_v copies of e_v A, of dimension the sum of m_v
    times the number of basis paths from v.  When that equals dim X the
    cover is an isomorphism: X is projective with multiplicities m_v
    (Assem, Simson and Skowronski, *Elements* 1, ch. I.5 and III.2).
    found lists them in path order: c = eps0, then eps1, ..."""
    n = rt.quiver.ray_lengths[0]
    x = stage_bimodule(rt)
    dims = [rt.modules[(0, l, 1)].dim for l in range(n + 1)]
    expected = [dims[0]] + [dims[i] - dims[i - 1] for i in range(1, n + 1)]
    found, paths = top_of(x)[0], x.algebra.paths
    cover = sum(m * sum(s == v for _, s, _, _ in paths) for m, v in zip(
        found, [v for _, v, _, w in paths if not w]))
    return found, [what for what, holds in (
        (f"multiplicities {found}, not {expected}", found == expected),
        (f"projective cover of dimension {cover}, not {x.dim}",
         cover == x.dim)) if not holds]
