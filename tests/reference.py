"""Reference oracles that the tests hold the library's fast paths to.

Each decides by enumeration or by the definition, never by the route it
checks: pp evaluation by enumerating witness tuples, the module laws by
multiplying every pair of action matrices, locality of an endomorphism
ring by enumerating its elements, and a module's top by the greedy
generator search and by one rank per vertex.
"""

import itertools

from ppmod.linalg import (Matrix, Subspace, combination, span_elements,
                          subspace_sum)
from ppmod.modules import (ModuleMap, Presentation, _module_span,
                           free_module, kernel_subspace)


def brute_eval(phi, module) -> set[tuple]:
    """All x-tuples (coordinates concatenated) satisfying the formula over
    a finite field, found by enumerating every (x, y) and testing each
    equation: coordinate c of condition e is sum_v (x, y)_v . H[v][e],
    H[v][e] the cell (v, e) or zero."""
    if module.algebra is not phi.algebra:
        raise ValueError("module over another algebra than the formula")
    f = module.algebra.field
    d, nvars, z = module.dim, phi.n + phi.l, phi.algebra.zero_el()
    equations = [[module.act(phi.cells.get((v, e), z)).data[r][c]
                  for v in range(nvars) for r in range(d)]
                 for e in range(phi.m) for c in range(d)]
    return {xy[:phi.n * d]
            for xy in itertools.product(tuple(f.elements()), repeat=nvars * d)
            if all(f.of(sum(x * y for x, y in zip(xy, eq))) == f.zero()
                   for eq in equations)}


def law_failure(alg, action):
    """Where one matrix per basis element of alg fails the laws of a right
    module, or None if it satisfies them: (None, k) when row k of
    action(1) differs from the identity's, else ((i, j), k) for the first
    i, j with action[i] action[j] != action(b_i b_j), first differing in
    row k."""
    k = _first_differing_row(combination(alg.unit, action),
                             Matrix.identity(alg.field, action[0].rows))
    if k is not None:
        return None, k
    zero = Matrix.zero(alg.field, action[0].rows, action[0].rows)
    for i, row in enumerate(alg.products):
        for j, p in enumerate(row):
            k = _first_differing_row(action[i] * action[j],
                                     zero if p is None else action[p])
            if k is not None:
                return (i, j), k
    return None


def _first_differing_row(a: Matrix, b: Matrix) -> int | None:
    if a == b:
        return None
    return next(k for k, (x, y) in enumerate(zip(a.data, b.data)) if x != y)


def end_local_by_enumeration(mats: list[Matrix]):
    """Whether the algebra spanned by mats (square, over GF(p)) is local,
    by enumerating its elements: a finite-dimensional algebra is local iff
    every element is nilpotent or invertible.  Returns (True, nilpotents)
    with the echelon coefficient rows spanning the nilpotents, which then
    form the radical, or (False, None) at the first element that is
    neither."""
    f, n = mats[0].field, mats[0].rows
    nilpotent = []
    for coeffs, x in span_elements(mats, Matrix.zero(f, n, n)):
        if x.rank() == n:
            continue
        power = x
        for _ in range(n - 1):
            power = power * x
        if not power.is_zero():
            return False, None
        nilpotent.append(coeffs)
    rad = Matrix.from_rows(f, nilpotent).row_space()
    if f.p ** rad.rows != len(nilpotent):
        raise AssertionError("the nilpotents of a local algebra form a "
                             "subspace")
    return True, rad


def greedy_generators(m, candidates) -> list[tuple]:
    """The candidates, in order, that lie outside the submodule generated
    by the candidates kept before them."""
    gens: list[tuple] = []
    span = Subspace.zero(m.algebra.field, m.dim)
    for v in candidates:
        if not span.contains_vector(v):
            gens.append(tuple(v))
            span = subspace_sum(span, _module_span(m, [v]))
    return gens


def greedy_module_generators(m) -> list[tuple]:
    """A generating set found greedily over the standard basis."""
    return greedy_generators(m, Matrix.identity(m.algebra.field, m.dim).data)


def greedy_presentation(m) -> Presentation:
    """A presentation on the greedy generators, with the greedy generators
    of the cover's kernel, taken over the kernel's echelon basis, as its
    relations."""
    alg, f = m.algebra, m.algebra.field
    gens = greedy_module_generators(m)
    s = len(gens)
    free = free_module(alg, s)
    # e_i (x) b_t -> g_i . b_t, at row i * dim A + t
    rows = [(Matrix(f, 1, m.dim, [g]) * a).data[0]
            for g in gens for a in m.action]
    cover = ModuleMap(free, m, Matrix(f, free.dim, m.dim, rows))
    ker = kernel_subspace(cover)
    relations = [tuple(v[i * alg.dim:(i + 1) * alg.dim] for i in range(s))
                 for v in greedy_generators(free, ker.basis.data)]
    return Presentation(relations, cover)


def top_multiplicities_by_rank(m) -> list[int]:
    """m_v = rank rho(e_v) - rank(R rho(e_v)) for each vertex idempotent
    e_v in path order, R stacking the actions of every path of positive
    length: the top M / M rad A has m_v copies of the simple at v."""
    paths = m.algebra.paths
    rad = Matrix.zero(m.algebra.field, 0, m.dim)
    for a, (_, _, _, w) in zip(m.action, paths):
        if w:
            rad = rad.vstack(a)
    return [e.rank() - (rad * e).rank()
            for e, (_, _, _, w) in zip(m.action, paths) if not w]
