"""The three workloads: one pass of each, with its inputs and checks.

Every workload is a closed loop with one caller: an operation starts when
the previous one has returned.  Operations are timed one by one; their
results are checked after the pass, outside the timing and with tracing
off, and every failure is recorded by type.  Nothing is re-drawn when an
operation raises or fails a check.

ppmod functions are always looked up on their module at call time, so the
traced run's rebound wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import shlex
import time
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

# The acceptance gate (tests/test_acceptance.py, `ppmod suite all`) runs the
# suites at seed 0.  A suite's cost moves a lot with its seed (krull-schmidt
# took 3.3 s to 10.9 s over seeds 0-11 on a 2-CPU Xeon VM), more than any
# bound at one pass per run, so `gate` always times the gate's own seed.
GATE_SUITE_SEED = 0
GATE_SMALL = ("ray-tube", "radical", "ziegler", "k-dual")
GATE_PARTS = ("pp-oracle", "duality", "krull-schmidt", "classification",
              "short-probes", "small")

# the exhaustive length-<=8 sweep; a pass that checks fewer paths fails
MESH_PATHS = 309_816

FIELDS_PARTS = ("ks-gf3", "ks-qq", "laws-gf3", "cli")
# Decomposition cost is heavy-tailed: over seeded draws one QQ Kronecker
# pair took 5.6 s where the mean was 0.23 s, so sums over seeded pairs
# spread by more than any bound.  Like the gate, the pairs are one fixed
# draw; the law sample and the CLI seed follow the workload seed.
KS_PAIRS_SEED = "fields-pairs:0"
KS_PAIRS_PER_ALGEBRA = 8
LAW_PAIRS_PER_ALGEBRA = 20
CORPUS_SIZE = 25
CLI_FIELDS = ("3", "rational")
SCENARIO = Path("scripts") / "example_scenario.txt"

# CLI self-check rows: first column -> required last column
SELF_CHECKS = {"hom_bound_ok": "True", "involution": "True",
               "square": "ok", "bimodule_multiplicities": "ok"}
# scenario commands that must print at least one self-check row
CHECKED_COMMANDS = {("classify",): "hom_bound_ok",
                    ("pp", "dual"): "involution",
                    ("realize",): "bimodule_multiplicities"}


def ppmod(name: str):
    return importlib.import_module(f"ppmod.{name}")


class Pass:
    """One pass: timed operations, then their checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: list[tuple[str, float, float]] = []  # (part, start, s)
        self.pending: list = []
        self.failures: Counter = Counter()
        self.failed = 0
        self.wrong = 0
        self.outputs: list[str] = []
        self.work: Counter = Counter()

    def op(self, part: str, fn, check):
        """Time fn() and return its value (None if it raised);
        check(value) -> (failure kinds, output lines) runs in verify()."""
        tracer = self.tracer
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            value, error = fn(), None
        except Exception as exc:  # recorded by type, never re-drawn
            value, error = None, exc
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
        self.ops.append((part, t0, dt))
        self.pending.append((part, value, error, check))
        return value

    def verify(self) -> None:
        for part, value, error, check in self.pending:
            if error is not None:
                kinds = [type(error).__name__]
                lines = [f"{part}\traised {type(error).__name__}"]
            else:
                try:
                    kinds, lines = check(value)
                except Exception as exc:
                    kinds = [f"check-raised-{type(exc).__name__}"]
                    lines = [f"{part}\tcheck raised {type(exc).__name__}"]
                if kinds:
                    self.wrong += 1
            self.outputs.extend(lines)
            if kinds:
                self.failed += 1
                self.failures.update(dict.fromkeys(kinds, 1))
        self.pending = []

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def wall(self) -> float:
        return sum(dt for _, _, dt in self.ops)

    def rescale(self, sampler) -> None:
        """Turn each operation's wall seconds into reference seconds
        (see hostspeed), keeping their plain sum as raw_wall."""
        self.raw_wall = self.wall
        self.ops = [(part, t0, sampler.scaled(t0, t0 + dt))
                    for part, t0, dt in self.ops]

    def part_seconds(self, parts) -> dict[str, float]:
        out = dict.fromkeys(parts, 0.0)
        for part, _, dt in self.ops:
            out[part] += dt
        return out


# -- gate -----------------------------------------------------------------


def _suite_check(res):
    kinds = [] if res.passed else [f"suite-failed-{res.name}"]
    return kinds, [res.summary(with_time=False)] + list(res.lines)


def _suite_counts(res) -> dict[str, int]:
    """Sizes a suite reports, e.g. {"krull-schmidt.pairs": 100}, read from
    its "key<TAB>N ..." detail lines."""
    counts = {}
    for line in res.lines:
        key, _, rest = line.partition("\t")
        first = rest.split(maxsplit=1)[0] if rest else ""
        if first.isdigit():
            counts[f"{res.name}.{key}"] = int(first)
    return counts


def gate_inputs(seed: int):
    suites = ppmod("suites")
    return [name for name in suites.CRITERIA_ORDER if name != "mesh"]


def gate_pass(names, seed: int, p: Pass) -> None:
    suites = ppmod("suites")
    for name in names:
        part = "small" if name in GATE_SMALL else name
        res = p.op(part, lambda: suites.SUITES[name](GATE_SUITE_SEED),
                   _suite_check)
        if res is not None:
            p.work.update(_suite_counts(res))


# -- mesh -----------------------------------------------------------------


def _mesh_check(res):
    kinds, lines = _suite_check(res)
    if _suite_counts(res).get("mesh.paths", 0) < MESH_PATHS:
        kinds.append("mesh-paths-shrunk")
    return kinds, lines


def mesh_inputs(seed: int):
    return None


def mesh_pass(_inputs, seed: int, p: Pass) -> None:
    suites = ppmod("suites")
    res = p.op("mesh", lambda: suites.SUITES["mesh"](seed), _mesh_check)
    if res is not None:
        p.work.update(_suite_counts(res))


# -- fields ---------------------------------------------------------------


def fields_inputs(seed: int, root: Path):
    """Krull-Schmidt pairs over GF(3) and QQ (one fixed draw), a seeded
    GF(3) law sample, and the example scenario's lines at two fields."""
    fields, algebra, catalog = ppmod("fields"), ppmod("algebra"), \
        ppmod("catalog")
    tower, modules, suites = ppmod("tower"), ppmod("modules"), \
        ppmod("suites")
    # the QQ certifier imports sympy on first use (~0.4 s); load it here so
    # set-up pays for it, not whichever pass happens to run first
    importlib.import_module("sympy")
    rng = random.Random(KS_PAIRS_SEED)
    pairs = []
    for part, field in (("ks-gf3", fields.GF(3)), ("ks-qq", fields.QQ)):
        for alg in (algebra.truncated_dvr(3, field),
                    tower.build_tower(2, 1, field).top,
                    algebra.kronecker_algebra(field)):
            for _ in range(KS_PAIRS_PER_ALGEBRA):
                a = catalog.random_quotient_of_free(alg, 2, rng, dim_cap=8)
                b = catalog.random_quotient_of_free(
                    alg, rng.choice([1, 2]), rng, dim_cap=8)
                s, _, _ = modules.direct_sum([a, b])
                pairs.append((part, alg, a, b, s))
    rng = random.Random(f"fields-laws:{seed}")
    laws = []
    gf3 = fields.GF(3)
    for alg in (algebra.truncated_dvr(3, gf3), algebra.kronecker_algebra(gf3)):
        corpus = suites.formula_corpus(alg, CORPUS_SIZE, rng)
        for _ in range(LAW_PAIRS_PER_ALGEBRA):
            laws.append((rng.choice(corpus), rng.choice(corpus)))
    lines = []
    with open(root / SCENARIO) as fh:
        for raw in fh:
            text = raw.strip()
            if text and not text.startswith("#"):
                lines.append(shlex.split(text))
    argvs = [["--field", fld, "--seed", str(seed)] + argv
             for fld in CLI_FIELDS for argv in lines]
    return pairs, laws, argvs


def _decompose_pair(a, b, s, seed):
    dec = ppmod("decompose")
    return dec.decompose(a, seed), dec.decompose(b, seed), \
        dec.decompose(s, seed)


def _merged_classes(da, db):
    """Classes of A and B merged up to isomorphism, as in the
    krull-schmidt acceptance suite."""
    modules = ppmod("modules")
    merged: list[tuple] = []
    for d in (da, db):
        for rep, mult, _ in d.classes:
            for t, (km, vm) in enumerate(merged):
                if km.dim == rep.module.dim and \
                        modules.iso_test(km, rep.module) is not None:
                    merged[t] = (km, vm + mult)
                    break
            else:
                merged.append((rep.module, mult))
    return merged


def _pair_check(part, alg, a, b, s):
    def check(result):
        modules, linalg = ppmod("modules"), ppmod("linalg")
        da, db, ds = result
        kinds = []
        if sum(x.module.dim for x in ds.summands) != s.dim:
            kinds.append("summand-dims")
        f = alg.field
        es = [e.mat for e in ds.idempotents()]
        zero = linalg.Matrix.zero(f, s.dim, s.dim)
        total = zero
        for i, e in enumerate(es):
            total = total + e
            if any(e * g != (e if i == j else zero)
                   for j, g in enumerate(es)):
                kinds.append("idempotents")
                break
        if total != linalg.Matrix.identity(f, s.dim):
            kinds.append("idempotent-sum")
        merged = _merged_classes(da, db)
        ok = len(merged) == len(ds.classes)
        for km, vm in merged if ok else ():
            hits = [m for rep, m, _ in ds.classes
                    if rep.module.dim == km.dim and
                    modules.iso_test(rep.module, km) is not None]
            ok = ok and hits == [vm]
        if not ok:
            kinds.append("multiplicities")
        if any(x.end_dim - x.end_rad_dim < 1 for x in ds.summands):
            kinds.append("not-local")
        dims = sorted(x.module.dim for x in ds.summands)
        mults = sorted(m for _, m, _ in ds.classes)
        return kinds, [f"{part}\t{alg.name}\t{a.dim}+{b.dim}\t"
                       f"summands {dims}\tmultiplicities {mults}"]
    return check


def _laws(phi, psi):
    pp = ppmod("ppformula")
    return (pp.dual(pp.dual(phi)).equivalent(phi),
            pp.dual(pp.pp_sum(phi, psi)).equivalent(
                pp.pp_meet(pp.dual(phi), pp.dual(psi))),
            pp.dual(pp.pp_meet(phi, psi)).equivalent(
                pp.pp_sum(pp.dual(phi), pp.dual(psi))),
            phi.implies(psi) == pp.dual(psi).implies(pp.dual(phi)))


def _laws_check(result):
    names = ("involution", "sum-to-meet", "meet-to-sum", "antitone")
    kinds = [f"law-{n}" for n, ok in zip(names, result) if not ok]
    return kinds, ["laws-gf3\t" + " ".join(str(ok) for ok in result)]


def _run_cli(argv):
    cli = ppmod("cli")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, buf.getvalue()


def _cli_check(argv):
    command = tuple(a for a in argv[4:6] if not a.startswith("-"))

    def check(result):
        code, out = result
        kinds = [] if code == 0 else [f"cli-exit-{code}"]
        seen = set()
        for line in out.splitlines():
            cols = line.split("\t")
            want = SELF_CHECKS.get(cols[0])
            if want is not None:
                seen.add(cols[0])
                if cols[-1] != want:
                    kinds.append(f"cli-self-check-{cols[0]}")
        for prefix, key in CHECKED_COMMANDS.items():
            if command[:len(prefix)] == prefix and key not in seen:
                kinds.append(f"cli-missing-{key}")
        return kinds, [f"cli\t{shlex.join(argv)}"] + out.splitlines()
    return check


def fields_pass(inputs, seed: int, p: Pass) -> None:
    pairs, laws, argvs = inputs
    for part, alg, a, b, s in pairs:
        p.op(part, lambda: _decompose_pair(a, b, s, seed),
             _pair_check(part, alg, a, b, s))
        p.work[f"{part}_pairs"] += 1
    for phi, psi in laws:
        p.op("laws-gf3", lambda: _laws(phi, psi), _laws_check)
        p.work["laws"] += 1
    for argv in argvs:
        p.op("cli", lambda: _run_cli(argv), _cli_check(argv))
        p.work["cli_lines"] += 1


# -- registry -------------------------------------------------------------


class Workload(NamedTuple):
    parts: tuple[str, ...]
    make_inputs: Callable   # seed -> inputs of one pass
    run: Callable           # (inputs, seed, Pass) -> None
    # hostspeed compute weight: how much of the host's slow mode the work
    # feels, between the memory loop (0) and the compute loop (1); set from
    # runs in both modes on a 2-vCPU VM (perfbench/README.md, Steadiness)
    compute_weight: float


def registry(root: Path) -> dict[str, Workload]:
    return {
        "gate": Workload(GATE_PARTS, gate_inputs, gate_pass, 0.6),
        "mesh": Workload(("mesh",), mesh_inputs, mesh_pass, 0.4),
        "fields": Workload(FIELDS_PARTS, lambda seed: fields_inputs(seed, root),
                           fields_pass, 0.8),
    }
