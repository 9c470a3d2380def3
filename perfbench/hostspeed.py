"""Host-speed sampling, so that timings read at one reference speed.

The 2-vCPU VMs the benchmark was built on switch between a fast and a
1.5-1.8x slower mode every few seconds to minutes; a pass of 10-30 s
catches a different mix of the two each run.  While a pass runs, a SIGALRM
timer runs two fixed pure-Python calibration loops every ``INTERVAL_S`` in
the benchmark's own thread and records how long they took.  An operation's
time is then rescaled by the samples taken during it:

    reference seconds = (wall seconds - sampling time) * mean(factor)
    factor = (REF_COMPUTE_S / compute loop) ** w
             * (REF_MEMORY_S / memory loop) ** (1 - w)

i.e. the time the operation would take on a host where the loops take
their reference times.  The slow mode hurts cache-resident code (the
compute loop) about three times as much as code that waits on memory (the
memory loop).  ppmod's work lies in between, and where depends on the
work: regressed on the loops, `mesh` work (path rewriting over dicts and
tuples) is the least sensitive and the `fields` decompositions the most,
so each workload names its compute weight ``w``.  The loops touch no
ppmod code, so a change to ppmod moves the rescaled time exactly as it
moves wall time.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

COMPUTE_ITERS = 1000
MEMORY_ITERS = 500
# the memory loop's table: ~2 MiB of dict and int objects, read in a
# scattered order, so most lookups miss the CPU's private caches
TABLE_KEYS = 20_000
# the loops' times at the reference speed, about the fast mode of a 2-vCPU
# "Intel(R) Xeon(R) Processor" VM with Python 3.11
REF_COMPUTE_S = 0.30e-3
REF_MEMORY_S = 0.38e-3
INTERVAL_S = 0.025
WARMUP_SAMPLES = 3

_TABLE = {i * 2654435761 % (1 << 32): i for i in range(TABLE_KEYS)}
_KEYS = list(_TABLE)
random.Random(0).shuffle(_KEYS)


def compute_loop(n: int = COMPUTE_ITERS) -> int:
    """Cache-resident interpreter work: tuple building, dict stores and
    lookups on a small dict, small-int arithmetic."""
    d = {}
    acc = 0
    for i in range(n):
        t = (i, i + 1)
        d[t] = i & 7
        acc ^= d.get((i - 1, i), 0) + len(t)
    return acc


def memory_loop(n: int = MEMORY_ITERS, _start=[0]) -> int:
    """Lookups of scattered keys in a table larger than the private
    caches; each call starts where the last one stopped."""
    table, keys, j = _TABLE, _KEYS, _start[0]
    acc = 0
    for i in range(n):
        acc += table[keys[(j + i * 7919) % TABLE_KEYS]]
    _start[0] = (j + n) % TABLE_KEYS
    return acc


def sample() -> tuple[float, float]:
    """(compute loop seconds, memory loop seconds), run back to back."""
    t0 = time.perf_counter()
    compute_loop()
    t1 = time.perf_counter()
    memory_loop()
    return t1 - t0, time.perf_counter() - t1


def speed_factor(samples: list[tuple[float, float]],
                 compute_weight: float) -> float:
    """Reference seconds per wall second over these samples."""
    w = compute_weight
    return statistics.fmean(
        (REF_COMPUTE_S / c) ** w * (REF_MEMORY_S / m) ** (1 - w)
        for c, m in samples)


class Sampler:
    """Context manager: takes a sample every INTERVAL_S of wall time while
    active; ``scaled(t0, t1)`` gives [t0, t1) in reference
    seconds."""

    def __init__(self, compute_weight: float):
        self.compute_weight = compute_weight
        # (start, (compute s, memory s), seconds spent in the handler)
        self.samples: list[tuple[float, tuple[float, float], float]] = []
        self._old = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        loops = sample()
        self.samples.append((t0, loops, time.perf_counter() - t0))

    def __enter__(self) -> "Sampler":
        for _ in range(WARMUP_SAMPLES):
            sample()
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def factor(self) -> float:
        """Speed factor over the whole sampled time."""
        return speed_factor([dt for _, dt, _ in self.samples],
                            self.compute_weight)

    def scaled(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall interval [t0, t1), net of the
        sampling done in it.  An interval too short to hold a sample takes
        the factor of the whole sampled time."""
        inside = [(dt, spent) for start, dt, spent in self.samples
                  if t0 <= start < t1]
        net = (t1 - t0) - sum(spent for _, spent in inside)
        factor = speed_factor([dt for dt, _ in inside], self.compute_weight) \
            if inside else self.factor()
        return net * factor
