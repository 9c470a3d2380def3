"""Reference oracles that the tests hold the library's fast paths to.

Each decides by enumeration or by the definition, never by the route it
checks: pp evaluation by enumerating witness tuples, the module laws by
multiplying every pair of action matrices, and locality of an
endomorphism ring by enumerating its elements.
"""

import itertools

from ppmod.linalg import Matrix, combination, span_elements


def brute_eval(phi, module) -> set[tuple]:
    """All x-tuples (coordinates concatenated) satisfying the formula over
    a finite field, found by enumerating every (x, y) and testing each
    equation: coordinate c of condition e is sum_v (x, y)_v . hmat[v][e]."""
    if module.algebra is not phi.algebra:
        raise ValueError("module over another algebra than the formula")
    f = module.algebra.field
    d, nvars = module.dim, len(phi.hmat)
    equations = [[module.act(phi.hmat[v][e]).data[r][c]
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
