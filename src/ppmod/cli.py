"""Command line scenario runner.

One command per invocation, or a scenario file with one command per line
('#' comments allowed).  Output is deterministic for a fixed seed: a
'#'-prefixed header block followed by tab-separated rows; --json switches
`suite` and `classify` to a machine-readable dump, and every other command
refuses it.  Exit codes: 0 all assertions pass, 1 an assertion failed,
2 usage or parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import os
import re
import shlex
import sys

from . import __version__
from .algebra import kronecker_algebra, truncated_dvr
from .catalog import (dvr_chain_module, kronecker_preinjective,
                      kronecker_preprojective, kronecker_regular)
from .errors import NoVerdict
from .fields import field_from_spec
from .modules import regular_module
from .ppformula import annihilator, divisibility, dual
from .ppsyntax import LEFT, RIGHT, format_formula, parse_formula
from .probes import kronecker_probe
from .realize import bimodule_failures, functor_failures, realize_in_tower
from .suites import CRITERIA_ORDER, SUITES
from .tower import build_tower, tower_dimension, verify_hom_bounds
from .tube import hom_dimension, parse_tube_descriptor
from .ziegler import (CLOSURE_ASSUMPTION, closure, is_closed, parse_point_set,
                      points)


# The largest algebra dimension --algebra accepts: dvr:N has dimension N,
# tower:N:n has N + n(n+3)/2.  The suites, tests and scripts use at most 10
# (the tower 5:2).  At 24, `pp dual` takes 0.02 s in-process (0.11 s as a
# subprocess) over GF(2) and 0.04-0.06 s (0.13-0.15 s) over QQ on a 2-CPU
# Xeon; the QQ cost grows faster than the dimension (0.13 s at 36, 0.28 s
# at 48 in-process).
MAX_ALGEBRA_DIM = 24

# The largest dimension a module literal over kronecker may have: PP(i) and
# PI(i) have dimension 2i + 1, R(lam)[n] 2n (V/m^j and regular are bounded
# by MAX_ALGEBRA_DIM).  The tests, scripts and README use at most 5.  With
# the formula `x8*a = 0`, `pp eval` takes 0.18-0.25 s at PP(48), PI(48)
# (97) and R(1)[48] (96) as a subprocess over GF(2), GF(3) and QQ on a
# 2-CPU Xeon, printing 1.1 MB; 0.43-0.59 s and 4.8 MB at R(1)[100], and
# 80 s and 480 MB over GF(2) at R(1)[1000].
MAX_MODULE_DIM = 97

# The largest --max-dim `probe kronecker` accepts.  The suites, scripts and
# the default use 9 (PP(0)..PP(4)).  The probe takes 0.14-0.21 s at 9 and
# 0.18-0.30 s at 13 over QQ as a subprocess on the same host (0.15-0.23 s
# at 13 over GF(2)).
MAX_PROBE_DIM = 13

# The largest --budget `probe kronecker` accepts.  The suites, tests and
# scripts use at most 10.  Each strict step of a probe's chain lowers the
# total dimension of its value over the universe, which is at most
# 1 + 3 + ... + 13 = 49 at MAX_PROBE_DIM, so no chain reaches 50 steps and
# a larger budget would change only the printed budget line.  At the caps
# (--budget 50 --max-dim 13) the probe takes 0.14 s over GF(2), 0.15 s
# over GF(3) and 0.17 s over QQ as a subprocess on the same host.
MAX_PROBE_BUDGET = 50

# The largest tower `classify` and `realize` build: horizon --N <= 15 and
# height (--n, --height) <= 3, so its top ring has dimension at most
# 15 + 3*6/2 = MAX_ALGEBRA_DIM; realize needs --stages < --N.  The suites,
# tests, scripts and benchmark use at most N = 10, height 2 and 9 stages.
# At the caps `realize --N 15 --height 3 --stages 14` takes 0.19 s over
# GF(2), 0.33 s over GF(3) and 0.32 s over QQ as a subprocess on a 2-CPU
# Xeon, and `classify --N 15 --n 3` 0.17-0.19 s.
MAX_TOWER_N = 15
MAX_TOWER_HEIGHT = 3
MAX_STAGES = MAX_TOWER_N - 1

# The largest --dim-cap `classify` accepts.  The suites and tests use at
# most 10.  The largest label of the largest tower (N = 15, height 3) has
# dimension 18 = MAX_TOWER_N + MAX_TOWER_HEIGHT, so a larger cap lists the
# same rows.  `classify --N 15 --n 3 --dim-cap 18` takes 0.17 s over GF(2),
# 0.19 s over GF(3) and 0.18 s over QQ as a subprocess on a 2-CPU Xeon.
MAX_CLASSIFY_DIM_CAP = MAX_TOWER_N + MAX_TOWER_HEIGHT

# The largest height `ziegler points` lists.  The suites and tests use at
# most 3, the example scenario 2.  Its output grows as the cube of the
# height: 0.2 s and 1.1 MB at 100, 0.4 s and 8.4 MB at 200, 11 s and
# 518 MB at 800 as a subprocess on a 2-CPU Xeon.  closure and is-closed
# are bounded by the size of --set and stay uncapped (0.13-0.16 s at 800).
MAX_ZIEGLER_HEIGHT = 100

# the commands that have a machine-readable (--json) output
JSON_COMMANDS = ("suite", "classify")


class _Refused(argparse.ArgumentTypeError, ValueError):
    """A refused number: argparse prints its message after the option's
    name (for a bare ValueError it would name the type function), and
    main reports it as a ValueError."""


def _number(text: str, least: int | None = None, where: str = "",
            most: int | None = None) -> int:
    """text as -?[0-9]+ in ASCII digits (int reads any Unicode digit), at
    least `least` and at most `most`; else ValueError naming it after
    `where`."""
    if re.fullmatch(r"-?[0-9]+", text) is None or \
            least is not None and int(text) < least or \
            most is not None and int(text) > most:
        bound = " and".join(f" {word} {v}" for word, v in (
            ("of at least", least), ("at most", most)) if v is not None)
        raise _Refused(f"{where}needs a whole number{bound}, not {text!r}")
    return int(text)


def _seed(text: str) -> int:
    """A --seed: a u64, as random.Random seeds with |seed| and so would
    repeat the draws of -s at s."""
    return _number(text, 0, most=2 ** 64 - 1)


def _algebra_from_spec(spec: str, field):
    kind, *nums = spec.split(":")
    form = f"algebra spec {spec!r} (use dvr:N, kronecker, tower:N:n)"
    if len(nums) != {"dvr": 1, "kronecker": 0, "tower": 2}.get(kind):
        raise ValueError(f"unknown {form}")
    nums = [_number(x, 0, f"{form} ") for x in nums]
    if kind != "kronecker":
        dim = nums[0] if kind == "dvr" else tower_dimension(*nums)
        if dim > MAX_ALGEBRA_DIM:
            raise ValueError(f"algebra {spec!r} has dimension {dim}, more "
                             f"than the limit of {MAX_ALGEBRA_DIM}")
    if kind == "dvr":
        return truncated_dvr(nums[0], field), nums[0]
    if kind == "kronecker":
        return kronecker_algebra(field), None
    tower = build_tower(*nums, field)
    return tower.top, tower.N


def _module_from_literal(alg, text: str):
    text = text.strip()
    if text == "regular":
        return regular_module(alg)
    lit = re.fullmatch(r"V/m\^(.*)|PP\((.*)\)|PI\((.*)\)|R\((.*)\)\[(.*)\]",
                       text)
    if lit is None:
        raise ValueError(f"unknown module literal {text!r}")
    chain, pp, pi, lam, length = lit.groups()
    where = f"module literal {text!r} "
    if chain is not None:
        return dvr_chain_module(alg, _number(chain, 1, where))
    if lam is None:
        i = _number(pi if pp is None else pp, 0, where)
        dim = 2 * i + 1
    else:
        lam = lam if lam == "inf" else alg.field.of(_number(lam, None, where))
        n = _number(length, 1, where)
        dim = 2 * n
    if dim > MAX_MODULE_DIM:
        raise ValueError(f"module literal {text!r} has dimension {dim}, more "
                         f"than the limit of {MAX_MODULE_DIM}")
    if pp is not None:
        return kronecker_preprojective(alg, i)
    if pi is not None:
        return kronecker_preinjective(alg, i)
    return kronecker_regular(alg, lam, n)


def _check_cap(option: str, value: int, cap: int):
    if value > cap:
        raise ValueError(f"{option} {value} is more than the limit of {cap}")


def _header(args, horizon=None) -> list[str]:
    out = [f"# ppmod {__version__}",
           f"# field {args.field}",
           f"# seed {args.seed}"]
    if horizon is not None:
        out.append(f"# horizon {horizon}")
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every main call and scenario line shares it."""
    p = argparse.ArgumentParser(prog="ppmod", description=__doc__)
    p.add_argument("--field", default="2",
                   help="coefficient field: a prime p or 'rational'")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--json", action="store_true",
                   help="machine-readable output (suite and classify only)")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("suite", help="run acceptance suites")
    s.add_argument("name", nargs="?", default="all",
                   choices=["all"] + CRITERIA_ORDER)

    c = sub.add_parser("classify", help="label table of a tower")
    c.add_argument("--N", type=_number, required=True)
    c.add_argument("--n", type=_number, required=True)
    c.add_argument("--dim-cap", type=_number, default=8)

    f = sub.add_parser("pp", help="pp-formula operations")
    f.add_argument("op", choices=["dual", "eval", "implies", "print"])
    f.add_argument("--algebra", default="dvr:3")
    f.add_argument("--side", default=RIGHT, choices=[RIGHT, LEFT])
    f.add_argument("--formula", required=True)
    f.add_argument("--formula2")
    f.add_argument("--module")

    z = sub.add_parser("ziegler", help="symbolic spectra")
    z.add_argument("op", choices=["points", "closure", "is-closed"])
    z.add_argument("--n", type=_number, required=True)
    z.add_argument("--set", dest="point_set", default="")

    t = sub.add_parser("tube", help="translation quiver operations")
    t.add_argument("--tube", required=True,
                   help="descriptor like 'm=2 n=[1,0] horizon=6'")
    t.add_argument("--dot", action="store_true")
    t.add_argument("--hom-dim", help="source->target as 'i,k,j->i,k,l'")

    pr = sub.add_parser("probe", help="shortness interval probes")
    pr.add_argument("target", choices=["kronecker"])
    pr.add_argument("--budget", type=_number, default=3)
    pr.add_argument("--max-dim", type=_number, default=9)

    r = sub.add_parser("realize", help="verify a realized tube ladder")
    r.add_argument("--N", type=_number, required=True)
    r.add_argument("--height", type=_number, required=True)
    r.add_argument("--stages", type=_number, required=True)

    run = sub.add_parser("run", help="execute a scenario file")
    run.add_argument("file")
    return p


def execute(args) -> tuple[int, list[str]]:
    """Execute one parsed command; returns (exit code, output lines)."""
    field = field_from_spec(args.field)
    cmd = args.command
    if args.json:
        if cmd not in JSON_COMMANDS:
            raise ValueError(f"--json is supported only by "
                             f"{' and '.join(JSON_COMMANDS)}, not by {cmd}")
        import json  # only --json output reads it
    if cmd == "suite":
        names = CRITERIA_ORDER if args.name == "all" else [args.name]
        lines = _header(args)
        lines.append("# suites run over their declared fields and universes;"
                     " --field does not alter them")
        ok = True
        payload = []
        for name in names:
            res = SUITES[name](args.seed)
            ok = ok and res.passed
            payload.append({"suite": name, "passed": res.passed,
                            "detail": res.lines})
            lines.append(res.summary(with_time=False))
            lines.extend(f"\t{ln}" for ln in res.lines)
        if args.json:
            return (0 if ok else 1), [json.dumps(payload, indent=2)]
        return (0 if ok else 1), lines

    if cmd == "classify":
        if args.dim_cap < 0:
            raise ValueError(f"--dim-cap must be at least 0, not {args.dim_cap}")
        _check_cap("--dim-cap", args.dim_cap, MAX_CLASSIFY_DIM_CAP)
        _check_cap("--N", args.N, MAX_TOWER_N)
        _check_cap("--n", args.n, MAX_TOWER_HEIGHT)
        tower = build_tower(args.N, args.n, field)
        rows, over = verify_hom_bounds(tower, args.dim_cap)
        lines = _header(args, horizon=args.N)
        if args.json:
            return (1 if over else 0), [json.dumps(
                [{"label": lab, "dim": d, "hom_from_bimodule": h}
                 for lab, d, h in rows], indent=2)]
        lines.append("label\tdim\tdim Hom(L_n, -)")
        for lab, d, h in rows:
            lines.append(f"{lab}\t{d}\t{h}")
        lines.append(f"hom_bound_ok\t{not over}")
        return (1 if over else 0), lines

    if cmd == "pp":
        alg, horizon = _algebra_from_spec(args.algebra, field)
        phi, side = parse_formula(alg, args.formula, args.side), args.side
        lines = _header(args, horizon=horizon)
        if args.op == "print":
            lines.append(f"formula\t{format_formula(phi, side)}")
            return 0, lines
        if args.op == "dual":
            d, dside = dual(phi), LEFT if side == RIGHT else RIGHT
            lines.append(f"input\t{format_formula(phi, side)}")
            lines.append(f"dual\t{format_formula(d, dside)}\t(side {dside})")
            lines.append(f"involution\t{dual(d).equivalent(phi)}")
            if phi.n == 1:
                for i in range(alg.dim):
                    a = alg.basis_el(i)
                    if d.equivalent(divisibility(d.algebra, a)):
                        lines.append(f"equivalent_to\t{alg.labels[i]} "
                                     f"divides x1")
                    if d.equivalent(annihilator(d.algebra, a)):
                        lines.append(f"equivalent_to\tx1 killed by "
                                     f"{alg.labels[i]}")
            return 0, lines
        if args.op == "eval":
            if not args.module:
                raise ValueError("pp eval needs --module")
            m = _module_from_literal(phi.algebra, args.module)
            val = phi.evaluate(m)
            lines.append(f"module\t{m.label}\tdim {m.dim}")
            lines.append(f"value_dim\t{val.dim}\tambient {val.ambient}")
            for row in val.basis.data:
                lines.append("basis\t" + ",".join(str(x) for x in row))
            return 0, lines
        if args.op == "implies":
            if not args.formula2:
                raise ValueError("pp implies needs --formula2")
            psi = parse_formula(alg, args.formula2, side)
            lines.append(f"implies\t{phi.implies(psi)}")
            return 0, lines

    if cmd == "ziegler":
        lines = _header(args)
        lines.append(CLOSURE_ASSUMPTION)
        if args.op == "points":
            _check_cap("--n", args.n, MAX_ZIEGLER_HEIGHT)
            full = points(args.n)
            lines.append(f"points\t{full}")
            return 0, lines
        s = parse_point_set(args.n, args.point_set)
        if args.op == "closure":
            lines.append(f"closure\t{closure(s)}")
            return 0, lines
        lines.append(f"is_closed\t{is_closed(s)}")
        return 0, lines

    if cmd == "tube":
        if args.dot and args.hom_dim is not None:
            raise ValueError("--hom-dim is not supported with --dot, which "
                             "prints only the graph")
        q = parse_tube_descriptor(args.tube)
        lines = _header(args, horizon=q.horizon)
        if args.dot:
            return 0, [q.dot()]
        lines.append(f"tube\tm={q.m}\tn={list(q.ray_lengths)}\t"
                     f"horizon={q.horizon}")
        lines.append(f"vertices\t{len(q.vertices())}")
        lines.append(f"arrows\t{len(q.arrows())}")
        if args.hom_dim is not None:
            try:
                src, tgt = [tuple(map(_number, side.split(",")))
                            for side in args.hom_dim.split("->")]
                if len(src) != 3 or len(tgt) != 3:
                    raise ValueError
            except ValueError:
                raise ValueError(f"--hom-dim needs 'i,k,j->i,k,l', not "
                                 f"{args.hom_dim!r}") from None
            lines.append(f"hom_dim\t{hom_dimension(q, src, tgt)}")
        return 0, lines

    if cmd == "probe":
        if args.max_dim < 3:
            raise ValueError("probe kronecker compares PP(0) with PP(1), "
                             "so --max-dim must be at least dim PP(1) = 3")
        _check_cap("--max-dim", args.max_dim, MAX_PROBE_DIM)
        _check_cap("--budget", args.budget, MAX_PROBE_BUDGET)
        alg = kronecker_algebra(field)
        pres = [kronecker_preprojective(alg, i)  # of dimension 2i + 1
                for i in range((args.max_dim + 1) // 2)]
        rep = kronecker_probe(pres, args.budget)
        lines = _header(args)
        lines.extend(rep.to_text().rstrip("\n").split("\n"))
        return 0, lines

    if cmd == "realize":
        _check_cap("--N", args.N, MAX_TOWER_N)
        _check_cap("--height", args.height, MAX_TOWER_HEIGHT)
        _check_cap("--stages", args.stages, MAX_STAGES)
        tower = build_tower(args.N, args.height, field)
        rt = realize_in_tower(tower, args.stages)
        squares, failed = functor_failures(rt)
        if failed:  # the first failed square is the only line
            return 1, failed[:1]
        found, failed = bimodule_failures(rt)
        lines = _header(args, horizon=args.N)
        lines.extend(f"square\t{name}\tok" for name in squares)
        lines.append(f"bimodule_multiplicities\t{found}\t"
                     f"{'MISMATCH' if failed else 'ok'}")
        return (1 if failed else 0), lines

    raise ValueError(f"unhandled command {cmd!r}")


def _reported(args) -> tuple[int, list[str]]:
    """execute(args), with a computation that stopped without a verdict as
    exit code 2 and its message."""
    try:
        return execute(args)
    except NoVerdict as exc:
        return 2, [str(exc)]


def run_scenario(path: str, parser, base_args) -> tuple[int, list[str]]:
    with open(path) as fh:
        raw = fh.readlines()

    def one(lineno, text):
        # argparse's usage, error and help text stay out of the output
        sink = io.StringIO()
        try:
            argv = shlex.split(text)
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                sub_args = parser.parse_args(
                    [f"--field={base_args.field}", f"--seed={base_args.seed}"]
                    + (["--json"] if base_args.json else []) + argv)
        except (SystemExit, ValueError):  # ValueError: an unclosed quote
            return 2, [f"# line {lineno}: parse error in {text!r}"]
        if sub_args.command == "run":
            return 2, [f"# line {lineno}: nested scenarios are not allowed"]
        try:
            return _reported(sub_args)
        except ValueError as exc:
            return 2, [f"# line {lineno}: {exc}"]

    code = 0
    out = []
    for lineno, line in enumerate(raw, 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        rc, lines = one(lineno, text)
        out.append(f"## {text}")
        out.extend(lines)
        code = max(code, rc)
    return code, out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            code, lines = run_scenario(args.file, parser, args)
        else:
            code, lines = _reported(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so the flush at
        # interpreter shutdown does not fail again with a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
