"""Kernel probe: rref, mul and add on seeded square matrices.

Each kernel runs on random n x n matrices (n = 16, 64, 128) over GF(2),
GF(3) and QQ.  The timed figure is the median time of one call.  Every
result is checked after the timing: rref against sympy's DomainMatrix,
sums entry by entry, and products by Freivalds' test (A(Bx) == (AB)x for
random x), which costs O(n^2) where DomainMatrix's own product over GF(p)
takes seconds at n = 128.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from fractions import Fraction

OPS = ("rref", "mul", "add")
FIELDS = ("gf2", "gf3", "qq")
SIZES = (16, 64, 128)

# repeat a kernel until this much time is spent, unless one call is slower
MIN_TOTAL_S = 0.25
MAX_REPS = 50
# a wrong product passes a Freivalds trial with x drawn from S values with
# probability <= 1/S; trials are added until that is <= 2^-32
FREIVALDS_BITS = 32
QQ_SAMPLE = 1 << 16


def _field(name: str):
    from ppmod.fields import GF, QQ
    return {"gf2": GF(2), "gf3": GF(3), "qq": QQ}[name]


def _random_matrix(field, n: int, rng: random.Random):
    from ppmod.linalg import Matrix
    if field.p is None:
        pool = [field.of(v) for v in (-2, -1, 0, 1, 2)]
    else:
        pool = list(field.elements())
    return Matrix(field, n, n, [[rng.choice(pool) for _ in range(n)]
                                for _ in range(n)])


def _to_domain_matrix(mat):
    from sympy import GF as SymGF, QQ as SymQQ
    from sympy.polys.matrices import DomainMatrix
    f = mat.field
    if f.p is None:
        dom = SymQQ
        rows = [[dom(x.numerator, x.denominator) for x in r] for r in mat.data]
    else:
        dom = SymGF(f.p)
        rows = [[dom(int(x)) for x in r] for r in mat.data]
    return DomainMatrix(rows, (mat.rows, mat.cols), dom)


def _from_domain_rows(rows, field):
    if field.p is None:
        return [[Fraction(int(x.numerator), int(x.denominator)) for x in r]
                for r in rows]
    return [[int(x) % field.p for x in r] for r in rows]


def _reduce(x, p):
    return x if p is None else x % p


def _matvec(mat, x, p):
    return [_reduce(sum(a * b for a, b in zip(row, x)), p) for row in mat.data]


def _check(op: str, a, b, out, rng: random.Random) -> bool:
    p = a.field.p
    if op == "add":
        return all(_reduce(x + y, p) == z
                   for ra, rb, ro in zip(a.data, b.data, out.data)
                   for x, y, z in zip(ra, rb, ro))
    if op == "mul":
        size = p or QQ_SAMPLE
        for _ in range(math.ceil(FREIVALDS_BITS / math.log2(size))):
            x = [rng.randrange(size) for _ in range(b.cols)]
            if _matvec(a, _matvec(b, x, p), p) != _matvec(out, x, p):
                return False
        return True
    red, pivots = out
    ref, ref_pivots = _to_domain_matrix(a).rref()
    ref_rows = _from_domain_rows(ref.to_list()[:len(ref_pivots)], a.field)
    return tuple(pivots) == tuple(ref_pivots) and \
        [list(r) for r in red.data] == ref_rows


def _time_calls(call) -> tuple[float, object]:
    times = []
    out = None
    total = 0.0
    while not times or (total < MIN_TOTAL_S and len(times) < MAX_REPS):
        t0 = time.perf_counter()
        out = call()
        dt = time.perf_counter() - t0
        times.append(dt)
        total += dt
    return statistics.median(times), out


def probe(seed: int) -> tuple[dict[str, float], list[str]]:
    """({metric: median ms per call}, [names of kernels whose check failed])"""
    rng = random.Random(f"kernels:{seed}")
    check_rng = random.Random(f"kernel-checks:{seed}")
    metrics: dict[str, float] = {}
    bad: list[str] = []
    for fname in FIELDS:
        field = _field(fname)
        for n in SIZES:
            a = _random_matrix(field, n, rng)
            b = _random_matrix(field, n, rng)
            calls = {"rref": a.rref, "mul": lambda: a * b,
                     "add": lambda: a + b}
            for op in OPS:
                name = f"kernel.{op}.{fname}.{n}_ms"
                seconds, out = _time_calls(calls[op])
                metrics[name] = 1000.0 * seconds
                if not _check(op, a, b, out, check_rng):
                    bad.append(name)
    return metrics, bad
