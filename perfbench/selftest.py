#!/usr/bin/env python3
"""Self-test of the traced run.

    python3 perfbench/selftest.py

For each workload it makes two traced runs of seed 0 and checks that
  - both report the same ``calls`` counts (and ``none_frac``) per span;
  - in each, the traced pass printed exactly what the untraced pass printed
    (suite verdict lines, CLI stdout, decomposition and law results) and
    the kernel probe agreed with sympy, i.e. the run reports correct.
Exit 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
WORKLOADS = ("gate", "mesh", "fields")
SEED = 0
TIMEOUT_S = 600


def traced_run(workload: str) -> tuple[dict, dict]:
    """(detail, result) of one traced run."""
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S,
        check=True)
    detail, result = out.stdout.splitlines()[-2:]
    return json.loads(detail)["detail"], json.loads(result)


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        runs = [traced_run(workload) for _ in range(2)]
        counts = [{k: v["value"] for k, v in result["metrics"].items()
                   if k.endswith((".calls", ".none_frac"))}
                  for _, result in runs]
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        match = all(d["tracing"]["outputs_match"] for d, _ in runs)
        kernels_ok = not any(d["tracing"]["kernel_check_failed"]
                             for d, _ in runs)
        correct = all(result["correct"] for _, result in runs)
        same = "identical" if not differ else "DIFFER: " + ", ".join(differ)
        print(f"{workload}\tseed {SEED}\t{len(counts[0])} counters {same}"
              f"\ttraced output {'matches' if match else 'DIFFERS'}"
              f"\tkernels {'agree with sympy' if kernels_ok else 'DISAGREE'}"
              f"\tcorrect {correct}")
        ok = ok and not differ and match and kernels_ok and correct
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
