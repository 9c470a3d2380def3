"""Concrete realization of the ray-tube ladder inside a tower module
category, and the exact check of its defining squares.

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

realize_in_tower only builds the tube; functor_failures checks it.  It
checks the stage-row squares tube[j] from M_0 = 0, so tube[1] is the
exact sequence 0 -> M_1 -> M_2 -> M_1 -> 0, and the ladder and rim
squares, the quiver's mesh rules, once each (a ZERO rule as a composite
that vanishes).  The mesh squares read nothing of the tower: when they
hold, the functor on paths descends to the mesh category, and every
word realizes to its normal form's map.

stage_bimodule builds the stage bimodule X = M_J (+) P^1_1 (+) ... (+)
P^n_1, and bimodule_failures checks it: a left action by right-module
maps, a left tower that embeds into End(X), and X projective as a left
module of the tower at horizon J by its top, the top's multiplicities
and a projective cover of X's dimension.
"""

from __future__ import annotations

from .catalog import dvr_chain_module
from .errors import HorizonExceeded
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


class RealizedTube:
    """A translation quiver realized in modules: a module per vertex and a
    map per arrow."""

    def __init__(self, quiver: TranslationQuiver):
        self.quiver = quiver
        self.modules: dict = {}  # vertex -> Module
        self.maps: dict = {}     # Arrow -> ModuleMap

    def realize_normal_path(self, np) -> ModuleMap:
        if np == ZERO:
            raise ValueError("zero has no single realization; compare is_zero")
        arrows = normal_path_arrows(self.quiver, np)
        out = identity_map(self.modules[np.start])
        for a in arrows:
            out = out.then(self.maps[a])
        return out


def realize_in_tower(tower: TowerRing, stages: int) -> RealizedTube:
    """Realize Q(1; n), n the tower's height, at horizon stages + 1, its
    squares unchecked (see functor_failures); needs stages + 1 < horizon
    headroom (stage modules use chain length stages + 1)."""
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
    lam^{n+1} from M_{j+1} then realizes phi_j.  When the two equations
    have no solution, f_j is the zero map and the squares it enters fail:
    tube[j] always, since phi_j is then zero."""
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
        rt.maps[Arrow("lam", 0, n, j + 1)] = \
            zero_map(P[(0, n, j + 1)], P[(0, 0, j)]) if sol is None else \
            ModuleMap(P[(0, n, j + 1)], P[(0, 0, j)], sol, check=True)


def functor_failures(rt: RealizedTube) -> tuple[list[str], list[str]]:
    """Check every defining square of the realized Q(1; n) as a pushout
    and pullback; returns the names of the squares checked, in order,
    and one line SQUARE_FAILED(<square>): <conditions> per failing square.

    First the stage-row squares tube[1..J] from M_0 = 0, with phi_j the
    rim walk from M_{j+1}; then one square per mesh rule, ladder[k+1,j]
    or rim[j], a ZERO rule as a composite that vanishes, which names no
    square; last coker[psi_1], which fails with tube[1]: tube[1] is the
    exact sequence 0 -> M_1 -> M_2 -> M_1 -> 0, so the cokernel of psi_1
    is M_1."""
    q, P, R = rt.quiver, rt.modules, rt.maps
    n, J = q.ray_lengths[0], q.horizon - 1
    squares, failures = [], []

    def check(name, *maps):
        failed = square_failures(*maps)
        squares.append(name)
        if failed:
            failures.append(f"SQUARE_FAILED({name}): {', '.join(failed)}")
        return failed

    m0 = quiver_rep(P[(0, 0, 1)].algebra, {}, {})
    phi = [zero_map(P[(0, 0, 1)], m0)] + [
        rt.realize_normal_path(NormalPath((0, 0, j + 1), n + 1, 0))
        for j in range(1, J + 1)]
    psi = [zero_map(m0, P[(0, 0, 1)])] + [R[Arrow("mu", 0, 0, j)]
                                         for j in range(1, J + 1)]
    stage_row = [check(f"tube[{j}]", phi[j - 1], psi[j], psi[j - 1], phi[j])
                 for j in range(1, J + 1)]
    for mu in q.arrows():
        if mu.kind != "mu":
            continue
        name = f"ladder[{mu.k + 1},{mu.j}]" if mu.k < n else f"rim[{mu.j}]"
        lam, rhs = _mesh_rule(q, mu)
        if rhs == ZERO:
            if not (R[mu].mat * R[lam].mat).is_zero():
                failures.append(f"SQUARE_FAILED({name}): mu;lam does not "
                                "vanish")
            continue
        lam2, mu2 = normal_path_arrows(q, rhs)
        check(name, R[mu], R[lam2], R[lam], R[mu2])
    squares.append("coker[psi_1]")
    if stage_row[0]:
        failures.append("SQUARE_FAILED(coker[psi_1]): " +
                        ", ".join(stage_row[0]))
    return squares, failures


# -- the stage bimodule and its projectivity ----------------------------------


def _stage_summands(rt: RealizedTube) -> list[Module]:
    """M_J, P^1_1, ..., P^n_1: the summands of the stage bimodule X."""
    n, J = rt.quiver.ray_lengths[0], rt.quiver.horizon - 1
    return [rt.modules[(0, 0, J)]] + [rt.modules[(0, l, 1)]
                                      for l in range(1, n + 1)]


def stage_bimodule(rt: RealizedTube) -> Module:
    """The stage-J surrogate of the limit bimodule: X = M_J (+) P^1_1 (+)
    ... (+) P^n_1 with its left action of the height-n tower built at
    horizon J, returned as a module over that tower's opposite algebra.

    The left action is the representation of the opposite tower quiver
    with M_J at vertex 0 and P^l_1 at vertex l: x acts as on M_J, b_l as
    alpha^l_1 = lam(0,l-1,1) and b_1 as beta_1 = alpha^1_1 u_1, where
    u_1: M_J -> M_1 is the rim walk of (n+1)(J-1) steps, so beta_1 is
    that walk one lam further.  bimodule_failures checks that it commutes
    with X's right action, and that the left tower embeds into End(X)."""
    n, J = rt.quiver.ray_lengths[0], rt.quiver.horizon - 1
    comps = _stage_summands(rt)
    mj = comps[0]
    arrows = {f"b{l}": rt.maps[Arrow("lam", 0, l - 1, 1)].mat
              for l in range(2, n + 1)}
    if n >= 1:
        arrows["b1"] = rt.realize_normal_path(
            NormalPath((0, 0, J), (n + 1) * (J - 1) + 1, 0)).mat
    if J > 1:  # k[x]/(x) has no arrow x
        arrows["x"] = mj.act(mj.algebra.el_from_label("x"))
    return quiver_rep(build_tower(J, n, mj.algebra.field).top.op, dict(
        enumerate(c.dim for c in comps)), arrows, label="stage_bimodule_left")


def bimodule_failures(rt: RealizedTube) -> tuple[list[int], list[str]]:
    """Certify the stage bimodule X a bimodule, projective as a left
    module with the dimension-difference multiplicities; returns the
    multiplicities found and what failed.

    X is a bimodule when the left action of each generator of the left
    tower is a map of right modules, and the left tower embeds into
    End(X) when the action matrices of its basis are linearly
    independent.  The top X / X rad holds m_v copies of the simple at
    vertex v, read by top_of.  By Nakayama's lemma X is a quotient of its
    projective cover, the sum of m_v copies of e_v A, of dimension the sum
    of m_v times the number of basis paths from v.  When that equals
    dim X the cover is an isomorphism: X is projective with
    multiplicities m_v (Assem, Simson and Skowronski, *Elements* 1, ch.
    I.5 and III.2).  found lists them in path order: c = eps0, then
    eps1, ..."""
    n = rt.quiver.ray_lengths[0]
    x = stage_bimodule(rt)
    right = direct_sum(_stage_summands(rt), label="stage_bimodule")[0]
    if x.dim != right.dim:
        failed = [f"left module of dimension {x.dim}, not dim X = {right.dim}"]
    else:
        failed = [f"left action of {x.algebra.labels[g]} is not a "
                  "right-module map" for g in x.algebra.generators
                  if not ModuleMap(right, right, x.action[g],
                                   check=False).intertwines()]
    if vectorized(x.algebra.field, x.action, x.dim ** 2).rank() != \
            x.algebra.dim:
        failed.append("left tower does not embed into End(X)")
    dims = [rt.modules[(0, l, 1)].dim for l in range(n + 1)]
    expected = [dims[0]] + [dims[i] - dims[i - 1] for i in range(1, n + 1)]
    found, paths = top_of(x)[0], x.algebra.paths
    cover = sum(m * sum(s == v for _, s, _, _ in paths) for m, v in zip(
        found, [v for _, v, _, w in paths if not w]))
    return found, failed + [what for what, holds in (
        (f"multiplicities {found}, not {expected}", found == expected),
        (f"projective cover of dimension {cover}, not {x.dim}",
         cover == x.dim)) if not holds]
