"""Independent brute-force oracles used to cross-check the fast paths.

`brute_eval_f2` avoids the kernel-and-project route of
PpFormula.evaluate: over GF(2) it lists the set of witness images by
doubling (one XOR per image) and then walks the whole x-space in
Gray-code order, one packed XOR per step, testing each x's image against
that set; nothing in it eliminates.  The oracles that only the tests
read (enumerated witnesses over any finite field, the module laws, local
End by enumeration) live with the tests.
"""

from __future__ import annotations

from .linalg import Subspace
from .modules import Module
from .ppformula import PpFormula


def brute_eval_f2(phi: PpFormula, module: Module) -> set[int]:
    """All x-tuples (packed bit vectors) satisfying the formula.  Writing
    X(x) and Y(y) for the packed images of x and y in all equations, x
    satisfies it iff X(x) ^ Y(y) = 0 for some y, that is iff X(x) is one of
    the witness images Y(y).  Those images are the XOR-sums of the witness
    deltas, so they are listed by doubling: each delta not yet among them
    XORs onto every image so far, and one already among them adds nothing.
    That lists each of the at most 2^rank images once, where walking all
    2^(l*d) witness tuples would meet each 2^(l*d - rank) times.  Then
    every one of the 2^(n*d) x-tuples is walked once to test its image:
    set membership and XOR only, with no elimination."""
    if module.algebra.field.p != 2:
        raise ValueError("packed oracle is GF(2) only")
    if module.algebra is not phi.algebra:
        raise ValueError("module over another algebra than the formula")
    d = module.dim
    n, m = phi.n, phi.m
    if d == 0:
        return {0}
    if m == 0:
        return set(range(1 << (n * d)))
    # delta[t]: packed effect on all equations of toggling variable coord t
    deltas = [0] * ((n + phi.l) * d)
    for (v, e), h in phi.cells.items():
        for r, bits in enumerate(module.act(h).ints):
            deltas[v * d + r] |= bits << (e * d)
    xdim = n * d
    images = {0}
    for t in deltas[xdim:]:
        if t not in images:
            images |= {v ^ t for v in images}
    # step i of a Gray-code walk toggles coordinate t, the lowest set bit
    # of i, and leaves the walk at the Gray code i ^ (i >> 1)
    found = {0}
    cur = 0
    for i in range(1, 1 << xdim):
        cur ^= deltas[(i & -i).bit_length() - 1]
        if cur in images:
            found.add(i ^ (i >> 1))
    return found


def subspace_int_set(s: Subspace) -> set[int]:
    """All vectors of a GF(2) subspace, packed as ints."""
    rows = s.basis.ints
    out = set()
    for bits in range(1 << len(rows)):
        v = 0
        b = bits
        i = 0
        while b:
            if b & 1:
                v ^= rows[i]
            b >>= 1
            i += 1
        out.add(v)
    return out
