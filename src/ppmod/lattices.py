"""Finite lattices of pp-values, the simple-interval collapse, and the
symbolic chain descriptors used for the dimension of modular lattices.

A FiniteLattice carries explicit order/join/meet tables over an element
list; elements are either canonical subspaces or opaque quotient classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Subspace, subspace_leq, subspace_meet, subspace_sum
from .modules import Module
from .ppformula import PpFormula


class FiniteLattice:
    """Finite lattice with precomputed leq / join / meet tables."""

    def __init__(self, elements, leq, join, meet, check: bool = True):
        self.elements = list(elements)
        self.leq = tuple(tuple(bool(x) for x in row) for row in leq)
        self.join = tuple(tuple(int(x) for x in row) for row in join)
        self.meet = tuple(tuple(int(x) for x in row) for row in meet)
        if check:
            self._check_axioms()

    def __len__(self):
        return len(self.elements)

    def _check_axioms(self):
        n = len(self.elements)
        leq, join, meet = self.leq, self.join, self.meet
        for i in range(n):
            if not leq[i][i]:
                raise ValueError("order not reflexive")
            for j in range(n):
                if leq[i][j] and leq[j][i] and i != j:
                    raise ValueError("order not antisymmetric")
                if join[i][j] != join[j][i] or meet[i][j] != meet[j][i]:
                    raise ValueError("join/meet not commutative")
                # join is the least upper bound
                a = join[i][j]
                if not (leq[i][a] and leq[j][a]):
                    raise ValueError("join not an upper bound")
                b = meet[i][j]
                if not (leq[b][i] and leq[b][j]):
                    raise ValueError("meet not a lower bound")
                if leq[i][j] and (join[i][j] != j or meet[i][j] != i):
                    raise ValueError("tables inconsistent with the order")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if leq[i][j] and leq[j][k] and not leq[i][k]:
                        raise ValueError("order not transitive")

    @staticmethod
    def from_subspaces(subs: list[Subspace], check_closed: bool = True) -> "FiniteLattice":
        """Lattice on a set of subspaces closed under sum and meet; elements
        sorted canonically (dimension, then echelon entries)."""
        uniq = {}
        for s in subs:
            uniq[s.key()] = s
        elements = [uniq[k] for k in sorted(uniq)]
        idx = {s.key(): i for i, s in enumerate(elements)}
        n = len(elements)
        leq = [[subspace_leq(elements[i], elements[j]) for j in range(n)]
               for i in range(n)]
        join = [[0] * n for _ in range(n)]
        meet = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                s = subspace_sum(elements[i], elements[j])
                m = subspace_meet(elements[i], elements[j])
                if check_closed and (s.key() not in idx or m.key() not in idx):
                    raise ValueError("subspace family not closed under sum/meet")
                join[i][j] = idx[s.key()]
                meet[i][j] = idx[m.key()]
        return FiniteLattice(elements, leq, join, meet, check=False)

    def covers(self) -> list[tuple[int, int]]:
        """All covering pairs (i, j) with i strictly below j and nothing
        strictly between."""
        n = len(self.elements)
        out = []
        for i in range(n):
            for j in range(n):
                if i == j or not self.leq[i][j]:
                    continue
                if any(k != i and k != j and self.leq[i][k] and self.leq[k][j]
                       for k in range(n)):
                    continue
                out.append((i, j))
        return out

    def longest_chain_steps(self) -> int:
        """Number of strict steps on a maximal chain."""
        n = len(self.elements)
        order = sorted(range(n), key=lambda i: sum(self.leq[k][i] for k in range(n)))
        best = [0] * n
        for i in order:
            for j in order:
                if j != i and self.leq[j][i] and best[j] + 1 > best[i]:
                    best[i] = best[j] + 1
        return max(best) if best else 0


def generated_sublattice(module: Module, gens: list[PpFormula],
                         depth_cap: int = 6) -> tuple[FiniteLattice, bool]:
    """Closure of the evaluated generators under subspace sum and meet, up
    to depth_cap rounds; the flag reports whether closure was reached.

    The sublattice is taken inside the bounded lattice of pp-values, so the
    zero subgroup and the whole of M^n are always present."""
    if not gens:
        raise ValueError("need at least one generator formula")
    arities = {(g.n, g.side) for g in gens}
    if len(arities) > 1:
        raise ValueError("generator formulas disagree in arity or side")
    n = gens[0].n
    f = module.algebra.field
    current = {}
    for s in (Subspace.zero(f, n * module.dim),
              Subspace.full(f, n * module.dim)):
        current[s.key()] = s
    for g in gens:
        s = g.evaluate(module)
        current[s.key()] = s
    complete = False
    for _ in range(depth_cap):
        items = list(current.values())
        added = False
        for i in range(len(items)):
            for j in range(i, len(items)):
                for s in (subspace_sum(items[i], items[j]),
                          subspace_meet(items[i], items[j])):
                    if s.key() not in current:
                        current[s.key()] = s
                        added = True
        if not added:
            complete = True
            break
    if complete:
        return FiniteLattice.from_subspaces(list(current.values())), True
    # not closed: report the raw family without join/meet tables
    elements = [current[k] for k in sorted(current)]
    n = len(elements)
    leq = [[subspace_leq(elements[i], elements[j]) for j in range(n)]
           for i in range(n)]
    trivial = [[0] * n for _ in range(n)]
    lat = FiniteLattice.__new__(FiniteLattice)
    lat.elements = elements
    lat.leq = tuple(tuple(r) for r in leq)
    lat.join = tuple(tuple(r) for r in trivial)
    lat.meet = tuple(tuple(r) for r in trivial)
    return lat, False


def collapse_simple_intervals(lat: FiniteLattice) -> FiniteLattice:
    """Quotient by the congruence generated by the covering pairs.

    Union-find seeded with all covers, then closed under compatibility with
    join and meet; the quotient order is induced via the join table."""
    n = len(lat.elements)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
            return True
        return False

    for i, j in lat.covers():
        union(i, j)
    changed = True
    while changed:
        changed = False
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if find(i) == find(j)]
        for i, j in pairs:
            for k in range(n):
                if union(lat.join[i][k], lat.join[j][k]):
                    changed = True
                if union(lat.meet[i][k], lat.meet[j][k]):
                    changed = True
    classes: dict[int, list[int]] = {}
    for i in range(n):
        classes.setdefault(find(i), []).append(i)
    reps = sorted(classes)
    index = {r: i for i, r in enumerate(reps)}
    q = len(reps)
    join = [[index[find(lat.join[reps[a]][reps[b]])] for b in range(q)]
            for a in range(q)]
    meet = [[index[find(lat.meet[reps[a]][reps[b]])] for b in range(q)]
            for a in range(q)]
    leq = [[join[a][b] == b for b in range(q)] for a in range(q)]
    elements = [frozenset(classes[r]) for r in reps]
    return FiniteLattice(elements, leq, join, meet, check=True)


# -- symbolic chain descriptors ------------------------------------------------


@dataclass(frozen=True)
class ChainDescriptor:
    """A chain of order type omega + tail (kind 'omega_plus') or a finite
    chain of tail elements (kind 'finite')."""

    kind: str
    tail: int

    def __post_init__(self):
        if self.kind not in ("finite", "omega_plus"):
            raise ValueError("kind must be 'finite' or 'omega_plus'")
        if self.kind == "finite" and self.tail < 1:
            raise ValueError("a finite chain has at least one element")
        if self.kind == "omega_plus" and self.tail < 0:
            raise ValueError("tail length must be >= 0")


def finite_chain(c: int) -> ChainDescriptor:
    return ChainDescriptor("finite", c)


def omega_plus(c: int) -> ChainDescriptor:
    return ChainDescriptor("omega_plus", c)


def collapse_descriptor(d: ChainDescriptor) -> ChainDescriptor:
    """One round of the simple-interval congruence, symbolically.

    Adjacent elements are covers, so each maximal block of cover-connected
    elements collapses: a finite chain becomes a point; in omega + tail the
    omega part (internally cover-connected, with no cover into the tail)
    and the tail collapse separately."""
    if d.kind == "finite":
        return finite_chain(1)
    if d.tail == 0:
        return finite_chain(1)
    return finite_chain(2)


def mdim(obj) -> int:
    """m-dimension: 0 when one collapse round reaches the one-point
    lattice, and 1 + (dimension of the quotient) otherwise."""
    if isinstance(obj, FiniteLattice):
        if len(obj) == 1:
            return 0
        q = collapse_simple_intervals(obj)
        if len(q) == 1:
            return 0
        if len(q) == len(obj):
            raise ValueError("collapse made no progress; not a finite-length case")
        return 1 + mdim(q)
    if isinstance(obj, ChainDescriptor):
        if obj.kind == "finite" and obj.tail == 1:
            return 0
        q = collapse_descriptor(obj)
        if q.kind == "finite" and q.tail == 1:
            return 0
        return 1 + mdim(q)
    raise TypeError("mdim expects a FiniteLattice or ChainDescriptor")
