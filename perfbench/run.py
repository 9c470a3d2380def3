#!/usr/bin/env python3
"""ppmod benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {gate,mesh,fields} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a ppmod checkout; it imports ppmod from ``src/``.

An untraced run (``--trace 0``) times one pass of the workload and, before
and after it, the set-up, and prints the end-to-end metrics.  Its times are
in reference seconds: wall time rescaled by calibration loops timed during
the work (see ``hostspeed.py``), because the host's speed shifts by up to
1.8x within and between runs.  A traced run (``--trace 1``) makes one
untraced pass, the kernel probe, then the same pass again with span
wrappers installed, and prints the per-layer metrics.
A run is one pass whatever S is: S is the declared length of a run (the
longest pass, ``mesh``, takes about that long), so that every run of a
workload measures the same work.  Either way the last stdout line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is a JSON ``detail`` object with
provenance, work counts, failures by type and the per-part figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# set-up is timed in fresh interpreters once before the pass and once after
# it, each time at least SETUP_MIN_REPS times and until SETUP_MIN_TOTAL_S is
# spent (at most SETUP_MAX_REPS times): the host's speed shifts every few
# seconds to minutes, and samples from both ends of the run see more of it.
# Each one is rescaled by SETUP_SPEED_SAMPLES host-speed samples taken just
# before and just after it.
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 20
SETUP_MIN_TOTAL_S = 2.0
SETUP_SPEED_SAMPLES = 10
SETUP_PROBE = """
import sys, time
src, here, root, workload, seed, n, weight = sys.argv[1:]
sys.path.insert(0, here)
import hostspeed
for _ in range(hostspeed.WARMUP_SAMPLES):
    hostspeed.sample()
cal = [hostspeed.sample() for _ in range(int(n))]
t0 = time.perf_counter()
sys.path.insert(0, src)
import ppmod, ppmod.suites, ppmod.cli, workloads
from pathlib import Path
workloads.registry(Path(root))[workload].make_inputs(int(seed))
wall = time.perf_counter() - t0
cal += [hostspeed.sample() for _ in range(int(n))]
print(wall * hostspeed.speed_factor(cal, float(weight)), wall, ppmod.__file__)
"""
SUBPROCESS_TIMEOUT_S = 60


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["gate", "mesh", "fields"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def setup_seconds(name: str, seed: int, compute_weight: float
                  ) -> tuple[list[float], list[float]]:
    """(reference seconds, wall seconds) of whole set-ups (import ppmod,
    build one pass's inputs), each in a fresh interpreter so that every
    import really runs."""
    times: list[float] = []
    walls: list[float] = []
    while len(times) < SETUP_MIN_REPS or (
            sum(walls) < SETUP_MIN_TOTAL_S and len(times) < SETUP_MAX_REPS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE),
             str(ROOT), name, str(seed), str(SETUP_SPEED_SAMPLES),
             str(compute_weight)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S, check=True)
        seconds, wall, path = out.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"ppmod imported from {path}, not {SRC}")
        times.append(float(seconds))
        walls.append(float(wall))
    return times, walls


def run_pass(workload, seed: int, tracer=None, sampler=None):
    """One pass on freshly built inputs, so no pass sees another's caches.
    With a hostspeed.Sampler, the pass is sampled and its operations'
    times are rescaled to reference seconds."""
    from workloads import Pass
    p = Pass(tracer)
    inputs = workload.make_inputs(seed)
    if sampler is None:
        workload.run(inputs, seed, p)
    else:
        with sampler:
            workload.run(inputs, seed, p)
        p.rescale(sampler)
    p.verify()
    return p


def quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def provenance(args, workload_name: str) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": workload_name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": model, "git_sha": git_sha(), "src_sha256": src_digest()}


def src_digest() -> str:
    """sha256 over src/ppmod's sources, which names the code even where the
    checkout is not a git clone."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ppmod").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        packed = (ROOT / ".git" / "packed-refs").read_text().splitlines()
        for line in packed:
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def summarize_pass(workload, p) -> dict:
    op_ms = [1000.0 * dt for _, _, dt in p.ops]
    return {"part_s": p.part_seconds(workload.parts),
            "ops": len(op_ms),
            "op_p50_ms": quantile(op_ms, 0.5),
            "op_p90_ms": quantile(op_ms, 0.9),
            "work_per_pass": dict(p.work)}


def failures_of(passes) -> dict:
    return dict(sum((p.failures for p in passes), Counter()))


def untraced(args, workload, detail: dict):
    import hostspeed
    weight = workload.compute_weight
    setups, setup_walls = setup_seconds(args.workload, args.seed, weight)
    sampler = hostspeed.Sampler(weight)
    p = run_pass(workload, args.seed, sampler=sampler)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    more, more_walls = setup_seconds(args.workload, args.seed, weight)
    setups += more
    setup_walls += more_walls
    detail["setup_s_samples"] = setups
    detail["setup_wall_s_samples"] = setup_walls
    detail["raw_wall_s"] = p.raw_wall
    detail["speed_factor"] = sampler.factor()
    detail["speed_samples"] = len(sampler.samples)
    metrics = {"wall_s": p.wall, "setup_s": statistics.median(setups),
               "peak_rss_mib": rss_mib}
    detail.update(summarize_pass(workload, p))
    return [p], metrics, True


def traced(args, workload, detail: dict):
    import kernels
    import tracing
    base = run_pass(workload, args.seed)
    kernel_metrics, kernel_bad = kernels.probe(args.seed)
    tracer = tracing.Tracer()
    tracer.install()
    t0 = time.perf_counter()
    traced_pass = run_pass(workload, args.seed, tracer)
    traced_run_s = time.perf_counter() - t0
    same_output = base.outputs == traced_pass.outputs
    metrics = tracer.metrics()
    metrics.update(kernel_metrics)
    metrics["trace_overhead_frac"] = traced_pass.wall / base.wall - 1.0
    from workloads import FIELDS_PARTS, GATE_PARTS
    base_parts = base.part_seconds(workload.parts)
    for part in GATE_PARTS:
        metrics[f"suite_s.{part}"] = base_parts.get(part, 0.0)
    for part in FIELDS_PARTS:
        metrics[f"part_s.{part}"] = base_parts.get(part, 0.0)
    detail.update(summarize_pass(workload, base))
    detail["tracing"] = {"untraced_wall_s": base.wall,
                       "traced_wall_s": traced_pass.wall,
                       "traced_pass_s": traced_run_s,
                       "outputs_match": same_output,
                       "kernel_check_failed": kernel_bad}
    return [base, traced_pass], metrics, same_output and not kernel_bad


def declared_metrics(traced_run: bool) -> dict[str, str]:
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced_run else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ppmod" / "__init__.py").is_file():
        print(f"error: no ppmod sources under {SRC}; run from a ppmod "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import workloads
    detail = provenance(args, args.workload)
    workload = workloads.registry(ROOT)[args.workload]

    if args.trace:
        passes, metrics, consistent = traced(args, workload, detail)
    else:
        passes, metrics, consistent = untraced(args, workload, detail)
    declared = declared_metrics(bool(args.trace))
    if metrics.keys() != declared.keys():
        print("error: metrics differ from BENCHMARK.json: "
              f"{sorted(metrics.keys() ^ declared.keys())}", file=sys.stderr)
        return 3

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wrong = sum(p.wrong for p in passes)
    detail["attempted"] = attempted
    detail["failed"] = failed
    detail["fail_frac"] = failed / attempted
    detail["failures"] = failures_of(passes)
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {"correct": consistent and wrong == 0,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in declared.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
