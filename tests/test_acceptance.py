"""Acceptance gate: every criterion runs at its stated exact tolerance and
prints one pass/fail line (run with -s to see them live)."""

import re
from pathlib import Path

import pytest

from ppmod.suites import SUITES

# `ppmod suite all` at seed 0
GOLDEN = Path(__file__).parent / "golden" / "suite_all.txt"

BUDGETS_SECONDS = {
    "pp-oracle": 60,
    "duality": 120,
    "krull-schmidt": 300,
    "classification": 600,
    "ray-tube": 300,
    "mesh": 120,
    "short-probes": 180,
    "radical": 180,
    "ziegler": 30,
    "k-dual": 60,
}


@pytest.mark.parametrize("name", list(SUITES))
def test_criterion(name):
    result = SUITES[name](seed=0)
    print(result.summary())
    for line in result.lines:
        print("   ", line)
    assert result.passed, f"criterion {name} failed: {result.lines}"
    # the verdict block `ppmod suite` prints is the recorded one, whole
    block = "".join([result.summary(with_time=False) + "\n"]
                    + [f"\t{line}\n" for line in result.lines])
    assert re.search(re.escape("\n" + block) + "(?!\t)", GOLDEN.read_text())
    assert result.seconds < BUDGETS_SECONDS[name], \
        f"criterion {name} exceeded its runtime budget"
