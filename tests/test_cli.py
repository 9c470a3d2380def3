import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppmod.cli import build_parser, execute, main


def run_cli(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    return execute(args)


def test_classify_table_sorted():
    code, lines = run_cli(["classify", "--N", "3", "--n", "1",
                           "--dim-cap", "8"])
    assert code == 0
    assert lines[0].startswith("# ppmod")
    rows = [l.split("\t")[0] for l in lines
            if l and not l.startswith("#") and "\t" in l][1:-1]
    assert rows == sorted(rows)


def test_pp_dual_example():
    code, lines = run_cli(["pp", "dual", "--algebra", "dvr:3",
                           "--formula", "x1*x = 0"])
    assert code == 0
    text = "\n".join(lines)
    assert "side left" in text
    assert "involution\tTrue" in text
    assert "x divides x1" in text


@pytest.mark.parametrize("formula, printed, dualized", [
    ("E y1 y2 . (x1 + y1 = 0)", "E y1 y2 . (x1 + y1 = 0)",
     "E y1 . (x1 + y1 = 0 & y1 = 0)"),
    ("x1*x + x1*x = 0", "(x1*(0) = 0)", "E y1 . (x1 = 0)"),
    ("x2 = 0", "(x2 = 0 & x1*(0) = 0)", "E y1 . (x1 = 0 & x2 + y1 = 0)"),
], ids=["bound-row-without-cells", "condition-without-cells",
        "free-row-without-cells"])
def test_rows_and_conditions_without_cells_print(formula, printed,
                                                 dualized):
    # a bound variable, a condition or a free variable that no cell holds
    # keeps its place in the printed formula and in its dual
    tail = ["--algebra", "dvr:3", "--formula", formula]
    code, lines = run_cli(["--field", "2", "pp", "print", *tail])
    assert code == 0 and f"formula\t{printed}" in lines
    code, lines = run_cli(["--field", "2", "pp", "dual", *tail])
    assert code == 0 and f"dual\t{dualized}\t(side left)" in lines


def test_ziegler_closure_example():
    code, lines = run_cli(["ziegler", "closure", "--n", "1",
                           "--set", "F0 Prufer"])
    assert code == 0
    assert any(l == "closure\t{F0 Prufer, F0 Q}" for l in lines)


def test_ziegler_closure_reads_a_family_with_exclusions():
    code, lines = run_cli(["ziegler", "closure", "--n", "1", "--set",
                           "F0 FinLen(* minus {3,4})"])
    assert code == 0
    assert lines[-1] == ("closure\t{F0 Adic, F0 FinLen(* minus {3,4}), "
                         "F0 Prufer, F0 Q}")


def test_ziegler_refuses_to_exclude_a_non_point_and_exits_2(capsys):
    # FinLen(0) is not a point, so no family can exclude it
    rc = main(["ziegler", "closure", "--n", "0", "--set",
               "FinLen(* minus {0})"])
    out = capsys.readouterr()
    assert rc == 2 and out.out == ""
    assert out.err == ("error: excluded index 0 is not a finite-length "
                       "point: FinLen(j) needs j >= 1\n")


def test_ziegler_header_carries_assumption_flag():
    code, lines = run_cli(["ziegler", "points", "--n", "1"])
    assert code == 0
    assert any("if-and-only-if" in l for l in lines)


def test_deterministic_output():
    a = run_cli(["suite", "ziegler"])
    b = run_cli(["suite", "ziegler"])
    assert a == b


def test_json_mode():
    code, lines = run_cli(["--json", "suite", "ziegler"])
    assert code == 0
    payload = json.loads("\n".join(lines))
    assert payload[0]["suite"] == "ziegler"
    assert payload[0]["passed"] is True


@pytest.mark.parametrize("argv", [
    ["pp", "dual", "--algebra", "dvr:3", "--formula", "x1*x = 0"],
    ["ziegler", "closure", "--n", "1", "--set", "F0 Prufer"],
    ["tube", "--tube", "m=1 n=[0] horizon=3", "--dot"],
    ["probe", "kronecker", "--budget", "3"],
    ["realize", "--N", "3", "--height", "0", "--stages", "2"],
])
def test_json_without_json_output_exits_2(argv, capsys):
    rc = main(["--json"] + argv)
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err == (f"error: --json is supported only by suite and classify, "
                   f"not by {argv[0]}\n")


def test_json_scenario_line_without_json_output_exits_2(tmp_path, capsys):
    scn = tmp_path / "scenario.txt"
    scn.write_text("classify --N 2 --n 1 --dim-cap 4\n"
                   "ziegler points --n 0\n")
    rc = main(["--json", "run", str(scn)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 2
    assert json.loads("\n".join(lines[1:-2]))[0]["label"]
    assert lines[-2:] == [
        "## ziegler points --n 0",
        "# line 2: --json is supported only by suite and classify, not by "
        "ziegler"]


def test_tube_dot_output():
    code, lines = run_cli(["tube", "--tube", "m=1 n=[0] horizon=3", "--dot"])
    assert code == 0
    assert lines[0].startswith("digraph")


def test_tube_over_size_limit_exits_2(monkeypatch, capsys):
    from ppmod import tube

    def refuse(self):
        pytest.fail("an over-limit tube reached table compilation")

    monkeypatch.setattr(tube.TranslationQuiver, "_compile", refuse)
    rc = main(["tube", "--tube", "m=1 n=[0] horizon=1000000000",
               "--hom-dim", "0,0,1->0,0,3"])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"limit of {tube.MAX_VERTICES}" in err


@pytest.mark.parametrize("value", ["a", "0,0,1->", "0,0->0,0",
                                   "0,0,1-0,0,2", "0,0,1->0,0,2->0,0,3",
                                   "0,x,1->0,0,1", ""])
def test_malformed_hom_dim_names_the_form_and_exits_2(value, capsys):
    rc = main(["tube", "--tube", "m=1 n=[0] horizon=3", "--hom-dim", value])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: --hom-dim needs 'i,k,j->i,k,l', not {value!r}\n"


@pytest.mark.parametrize("value", ["x", "0,0,1->0,0,3"])
def test_hom_dim_with_dot_exits_2(value, capsys):
    # --dot prints only the graph, so a --hom-dim beside it would go unread
    rc = main(["tube", "--tube", "m=2 n=[1,0] horizon=6", "--dot",
               "--hom-dim", value])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == ("error: --hom-dim is not supported with --dot, which "
                   "prints only the graph\n")


@pytest.mark.parametrize("argv, value, form", [
    (["ziegler", "closure", "--n", "1", "--set", "F0 FinLen(x)"],
     "F0 FinLen(x)", "needs FinLen(j) with j a whole number"),
    (["ziegler", "closure", "--n", "1", "--set", "F0 T(y)"], "F0 T(y)",
     "needs T(j) with j a whole number"),
    (["tube", "--tube", "m=x n=[0] horizon=6"], "m=x", "needs m=M"),
    (["tube", "--tube", "m=1 n=[a] horizon=6"], "n=[a]",
     "needs n=[n_0,...,n_{m-1}]"),
    (["tube", "--tube", "m=1 n=[0] horizon=x"], "horizon=x",
     "needs horizon=J"),
    (["tube", "--tube", "m=2 n=[1,,0] horizon=6"], "n=[1,,0]",
     "needs n=[n_0,...,n_{m-1}]"),
    (["tube", "--tube", "m=2 n=[1,0] horizon=6 extra"], "extra",
     "the form is '[tube] m=M n=[n_0,...,n_{m-1}] horizon=J'"),
    (["--field", "x", "suite", "ziegler"], "x",
     "--field needs a prime p or 'rational'"),
], ids=["finlen-x", "t-y", "m-x", "n-a", "horizon-x", "n-empty-entry",
        "extra-word", "field-x"])
def test_a_malformed_number_names_the_value_and_exits_2(argv, value, form,
                                                        capsys):
    # the one error line names the value and the form it should take
    rc = main(argv)
    out = capsys.readouterr()
    assert rc == 2 and out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert repr(value) in out.err and form in out.err


@pytest.mark.parametrize("spec", ["x", "", "4", "1", "0", "-3", "+3",
                                  "3.0", "\u0663"])
def test_field_spec_is_a_prime_in_ascii_digits_or_rational(spec):
    from ppmod.fields import GF, QQ, field_from_spec
    assert field_from_spec(" 3 ") is GF(3)
    assert field_from_spec("Rational") is QQ
    with pytest.raises(ValueError, match=re.escape(
            f"--field needs a prime p or 'rational', not {spec!r}")):
        field_from_spec(spec)


def test_a_repeated_tube_descriptor_key_exits_2(capsys):
    from ppmod.tube import parse_tube_descriptor
    for text in ("m=1 n=[0] horizon=3 m=2", "tube m=1 n=[0] n=[1] horizon=3"):
        with pytest.raises(ValueError, match="tube descriptor repeats"):
            parse_tube_descriptor(text)
    rc = main(["tube", "--tube", "m=1 n=[0] horizon=3 m=2"])
    assert rc == 2
    assert capsys.readouterr().err == "error: tube descriptor repeats m=\n"


@pytest.mark.parametrize("spec", ["tower:2", "dvr:", "dvr", "dvr:x",
                                  "dvr:-1", "dvr:3:4", "kronecker:1",
                                  "tower:2:1:1", "tower:a:1"])
def test_malformed_algebra_spec_exits_2(spec):
    proc = subprocess.run(
        [sys.executable, "-m", "ppmod.cli", "pp", "dual", "--algebra", spec,
         "--formula", "x1 = 0"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "dvr:N, kronecker, tower:N:n" in proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout


@pytest.mark.parametrize("spec", ["dvr:25", "dvr:100000000000",
                                  "tower:23:1", "tower:1:6",
                                  "tower:2:100000"])
def test_algebra_over_size_limit_exits_2(spec, monkeypatch, capsys):
    from ppmod import cli

    def refuse(*args):
        pytest.fail("an over-limit algebra was built")

    monkeypatch.setattr(cli, "truncated_dvr", refuse)
    monkeypatch.setattr(cli, "build_tower", refuse)
    rc = main(["pp", "dual", "--algebra", spec, "--formula", "x1 = 0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"limit of {cli.MAX_ALGEBRA_DIM}" in err


def test_algebra_at_size_limit_is_built(monkeypatch):
    from ppmod import cli
    built = []
    monkeypatch.setattr(cli, "truncated_dvr",
                        lambda n, field: built.append(n) or "algebra")
    assert cli._algebra_from_spec(f"dvr:{cli.MAX_ALGEBRA_DIM}", None) == \
        ("algebra", cli.MAX_ALGEBRA_DIM)
    assert built == [cli.MAX_ALGEBRA_DIM]


def test_unknown_ring_element_is_named(capsys):
    rc = main(["pp", "dual", "--algebra", "dvr:3", "--formula", "x1*q = 0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown ring element 'q'" in err
    assert "valid: 1, x, x^2" in err


@pytest.mark.parametrize("formula, err", [
    ("x1*x + x0 = 0", "variables are numbered from 1, not x0"),
    ("E y1 . (x1 + y1*x + x0*x^2 = 0)",
     "variables are numbered from 1, not x0"),
    ("E y1 y1 . (x1 - y1*x = 0)", "y1 is declared twice"),
], ids=["x0", "x0-with-y", "y1-twice"])
def test_variable_zero_and_a_repeated_y_exit_2(formula, err, capsys):
    rc = main(["pp", "print", "--algebra", "dvr:3", "--formula", formula])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: {err}\n" and captured.out == ""


def test_x_numbered_above_the_limit_exits_2(capsys):
    # x100000000 would make a hundred million rows
    assert main(["pp", "print", "--algebra", "dvr:3", "--formula",
                 "x100000000 = 0"]) == 2
    assert capsys.readouterr().err == \
        "error: x100000000 is numbered above the limit of x8\n"


def test_formula_with_trailing_whitespace_is_read(capsys):
    rc = main(["pp", "print", "--algebra", "dvr:3", "--formula",
               "x1*x = 0 "])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert main(["pp", "print", "--algebra", "dvr:3", "--formula",
                 "x1*x = 0"]) == 0
    assert capsys.readouterr().out == captured.out


def test_scenario_file_run(tmp_path):
    scn = tmp_path / "scenario.txt"
    scn.write_text(
        "# demo scenario\n"
        "classify --N 2 --n 1 --dim-cap 6\n"
        "ziegler closure --n 0 --set \"Prufer\"\n"
        "pp implies --algebra dvr:2 --formula \"E y1 . (x1 - y1*x = 0)\" "
        "--formula2 \"x1*x = 0\"\n")
    rc = main(["run", str(scn)])
    assert rc == 0


def test_scenario_parse_error_exit_code(tmp_path, capsys):
    # a refused line prints its row only: argparse's usage, error and help
    # text reach neither stream
    scn = tmp_path / "bad.txt"
    scn.write_text("classify --N ٣ --n 1\nrealize --help\n"
                   "ziegler points --n 0\nclassify --N \"3 --n 1\n")
    rc = main(["run", str(scn)])
    out = capsys.readouterr()
    assert rc == 2
    assert out.err == ""
    rows = out.out.splitlines()
    assert rows[:4] == ["## classify --N ٣ --n 1",
                        "# line 1: parse error in 'classify --N ٣ --n 1'",
                        "## realize --help",
                        "# line 2: parse error in 'realize --help'"]
    assert rows[4] == "## ziegler points --n 0"
    # an unclosed quote is one more refused line, not the end of the run
    assert rows[-2:] == ['## classify --N "3 --n 1',
                         "# line 4: parse error in 'classify --N \"3 --n 1'"]
    assert "usage:" not in out.out


def test_scenario_path_that_cannot_be_read_exits_2(tmp_path, capsys):
    rc = main(["run", str(tmp_path)])    # a directory, not a file
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


def test_horizon_exceeded_surfaces_verbatim(capsys):
    rc = main(["realize", "--N", "3", "--height", "1", "--stages", "5"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "HORIZON_EXCEEDED" in out


def test_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ppmod.cli", "ziegler", "points", "--n", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "FinLen(*)" in proc.stdout


GOLDEN = Path(__file__).parent / "golden"
SCENARIO = Path(__file__).parent.parent / "scripts" / "example_scenario.txt"


def test_rational_scenario_does_not_import_sympy():
    # its one QQ local-End certificate has a one-dimensional top, which
    # needs no factoring
    code = ("import sys\n"
            "from ppmod import cli\n"
            f"code = cli.main(['--field', 'rational', 'run', {str(SCENARIO)!r}])\n"
            "print(code, 'sympy' in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.stderr.split() == ["0", "False"]


def test_gf2_scenario_loads_no_dataclasses_inspect_or_json():
    # start-up cost: a process that imports the suites and the CLI and
    # runs the example scenario loads none of them; only a --json run
    # loads json
    code = ("import contextlib, io, sys\n"
            "import ppmod.suites, ppmod.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = ppmod.cli.main(['--field', '2', 'run', "
            f"{str(SCENARIO)!r}])\n"
            "print(code, *(m in sys.modules for m in "
            "('dataclasses', 'inspect', 'json')), file=sys.stderr)\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    code = ppmod.cli.main(['--json', 'suite', 'ziegler'])\n"
            "print(code, out.getvalue(), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    scenario, suite = proc.stderr.split("\n", 1)
    assert scenario.split() == ["0", "False", "False", "False"]
    rc, payload = suite.split(" ", 1)
    assert rc == "0"
    assert json.loads(payload)[0]["suite"] == "ziegler"


@pytest.mark.parametrize("golden, argv", [
    ("scenario_field_2.txt", ["--field", "2", "run", str(SCENARIO)]),
    ("scenario_field_3.txt", ["--field", "3", "run", str(SCENARIO)]),
    ("scenario_field_rational.txt",
     ["--field", "rational", "run", str(SCENARIO)]),
    ("tube_dot.txt", ["tube", "--tube", "m=2 n=[1,0] horizon=6", "--dot"]),
] + [
    (f"realize_h2_field_{f}.txt",
     ["--field", f, "realize", "--N", "6", "--height", "2", "--stages", "3"])
    for f in ("2", "3", "rational")
] + [
    (f"classify_field_{f}.txt",
     ["--field", f, "classify", "--N", "3", "--n", "2", "--dim-cap", "10"])
    for f in ("2", "3", "rational")
] + [
    ("suite_mesh.txt", ["suite", "mesh"]),
    # print, dual and implies of left formulas over dvr:3, kronecker and
    # tower:3:1
    ("pp_left_side.txt", ["run", str(GOLDEN / "pp_left_side_scenario.txt")]),
])
def test_cli_output_matches_golden(golden, argv, capsys):
    """stdout is byte-identical to the recorded output in tests/golden/."""
    rc = main(argv)
    assert rc == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("argv", [
    ["--field", "3", "realize", "--N", "10", "--height", "0", "--stages", "9"],
    ["--field", "7", "realize", "--N", "7", "--height", "0", "--stages", "5"],
], ids=["gf3-stages9", "gf7-stages5"])
def test_realize_with_large_local_ends_exits_by_verdict(argv):
    # the stage modules' End rings are past the old enumeration limit
    proc = subprocess.run([sys.executable, "-m", "ppmod.cli"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode in (0, 1)
    assert "Traceback" not in proc.stderr + proc.stdout
    assert "bimodule_multiplicities" in proc.stdout


def test_undecided_exits_2(monkeypatch, capsys):
    from ppmod import suites
    from ppmod.errors import Undecided

    def undecided(m, seed=0):
        raise Undecided("End neither certified local nor split")

    monkeypatch.setattr(suites, "decompose", undecided)
    rc = main(["suite", "krull-schmidt"])
    assert rc == 2
    assert "UNDECIDED: End neither" in capsys.readouterr().out


def test_failed_square_exits_1_with_one_line(failed_square, capsys):
    rc = main(["realize", "--N", "5", "--height", "1", "--stages", "2"])
    out = capsys.readouterr()
    assert rc == 1
    assert out.err == ""
    [line] = out.out.splitlines()
    assert line.startswith("SQUARE_FAILED(tube[1]): ")


def test_failed_square_scenario_line_exits_1(failed_square, tmp_path,
                                             capsys):
    scn = tmp_path / "scenario.txt"
    scn.write_text("realize --N 5 --height 1 --stages 2\n"
                   "pp dual --algebra dvr:3 --formula 'x1*x = 0'\n")
    rc = main(["run", str(scn)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert lines[0] == "## realize --N 5 --height 1 --stages 2"
    assert lines[1].startswith("SQUARE_FAILED(tube[1]): ")
    # the next line still runs
    assert lines[2] == "## pp dual --algebra dvr:3 --formula 'x1*x = 0'"


def test_failed_bimodule_multiplicities_exit_1(monkeypatch, capsys):
    import ppmod.cli

    def mismatched(rt):
        return [1, 2], ["multiplicities [1, 2], not [1]"]

    monkeypatch.setattr(ppmod.cli, "bimodule_failures", mismatched)
    assert main(["realize", "--N", "3", "--height", "0", "--stages", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "bimodule_multiplicities\t[1, 2]\tMISMATCH"


def test_failed_hom_bound_exits_1(monkeypatch, capsys):
    import ppmod.cli

    def exceeded(tower, dim_cap):
        return [("T(1)", 1, 2)], ["T(1)"]

    monkeypatch.setattr(ppmod.cli, "verify_hom_bounds", exceeded)
    assert main(["classify", "--N", "3", "--n", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["T(1)\t1\t2", "hom_bound_ok\tFalse"]


def test_failed_suite_exits_1(monkeypatch, capsys):
    import ppmod.cli
    from ppmod.suites import SuiteResult

    def failing(seed):
        return SuiteResult("ziegler", False, ["failures\tplanted"])

    monkeypatch.setitem(ppmod.cli.SUITES, "ziegler", failing)
    assert main(["suite", "ziegler"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["FAIL\tziegler", "\tfailures\tplanted"]


@pytest.mark.parametrize("literal, part", [
    ("R(0)[0]", "0"), ("R(inf)[0]", "0"), ("R(0)[-1]", "-1"),
    ("PP(-1)", "-1"), ("PI(-1)", "-1"), ("PP(x)", "x"),
])
def test_module_literal_out_of_range_exits_2(literal, part, capsys):
    assert main(["pp", "eval", "--algebra", "kronecker", "--module",
                 literal, "--formula", "x1*a = 0"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: module literal {literal!r} needs a "
                              f"whole number")
    assert out.err.endswith(f"not {part!r}\n")


@pytest.mark.parametrize("argv", [
    ["--seed", "\u0663", "tube", "--tube", "m=1 n=[0] horizon=4"],
    ["classify", "--N", "\u0663", "--n", "1"],
    ["classify", "--N", "3", "--n", "\u0663"],
    ["classify", "--N", "3", "--n", "1", "--dim-cap", "\u0663"],
    ["ziegler", "points", "--n", "\u0663"],
    ["probe", "kronecker", "--budget", "\u0663"],
    ["probe", "kronecker", "--max-dim", "\u0663"],
    ["realize", "--N", "\u0663", "--height", "0", "--stages", "1"],
    ["realize", "--N", "4", "--height", "\u0663", "--stages", "1"],
    ["realize", "--N", "4", "--height", "0", "--stages", "\u0663"],
    ["tube", "--tube", "m=1 n=[0] horizon=4", "--hom-dim",
     "0,0,1->0,0,\u0663"],
    ["pp", "print", "--algebra", "dvr:\u0663", "--formula", "x1 = 0"],
    ["pp", "eval", "--algebra", "dvr:3", "--formula", "x1 = 0", "--module",
     "V/m^\u0663"],
], ids=["seed", "classify-N", "classify-n", "dim-cap", "ziegler-n", "budget",
        "max-dim", "realize-N", "height", "stages", "hom-dim", "algebra",
        "module"])
def test_a_number_in_other_digits_is_named_and_exits_2(argv, capsys):
    # int would read the Arabic-Indic digit three as 3
    try:
        code = main(argv)
    except SystemExit as exc:  # a refused option, from argparse
        code = exc.code
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert "\u0663" in out.err and "Traceback" not in out.err


@pytest.mark.parametrize("argv, last", [
    (["realize", "--N", "5", "--height", "2", "--stages", "3"],
     "bimodule_multiplicities\t[1, 1, 1]\tok"),
    (["classify", "--N", "6", "--n", "3"], "hom_bound_ok\tTrue"),
], ids=["realize", "classify"])
def test_a_large_prime_field_ends(argv, last):
    # x^p is formed by repeated squaring, so p ~ 10^18 costs about 120
    # products where p - 1 would never end
    proc = subprocess.run(
        [sys.executable, "-m", "ppmod.cli", "--field",
         "1000000000000000003", *argv],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == last


def test_a_prime_field_above_the_limit_exits_2(capsys):
    # 2^64 + 13 is the least prime above fields.PRIME_LIMIT
    assert main(["--field", str(2 ** 64 + 13), "tube", "--tube",
                 "m=1 n=[0] horizon=4"]) == 2
    assert "at least 2^64" in capsys.readouterr().err


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    # build_parser adds the command subparsers once per parser it builds
    import argparse
    import ppmod.cli
    built = []
    inner = argparse.ArgumentParser.add_subparsers

    def counted(self, **kwargs):
        built.append(self)
        return inner(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    ppmod.cli.build_parser.cache_clear()
    try:
        for _ in range(2):
            assert main(["tube", "--tube", "m=1 n=[2] horizon=4"]) == 0
    finally:
        ppmod.cli.build_parser.cache_clear()
    assert len(built) == 1


@pytest.mark.parametrize("max_dim", ["2", "1", "0"])
def test_probe_without_pp1_exits_2(max_dim):
    proc = subprocess.run(
        [sys.executable, "-m", "ppmod.cli", "probe", "kronecker",
         "--max-dim", max_dim], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "PP(0) with PP(1)" in proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout


def test_probe_max_dim_above_the_cap_exits_2():
    from ppmod.cli import MAX_PROBE_DIM
    proc = subprocess.run(
        [sys.executable, "-m", "ppmod.cli", "probe", "kronecker",
         "--max-dim", str(MAX_PROBE_DIM + 1)], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == (f"error: --max-dim {MAX_PROBE_DIM + 1} is more "
                           f"than the limit of {MAX_PROBE_DIM}\n")
    assert proc.stdout == ""


def test_classify_negative_dim_cap_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "ppmod.cli", "classify", "--N", "3", "--n",
         "1", "--dim-cap", "-3"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == "error: --dim-cap must be at least 0, not -3\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("algebra, module, message", [
    ("kronecker", "V/m^3", "kronecker is not"),
    ("tower:2:1", "V/m^4", "k[x]/(x^2)[L0] is not"),
    ("dvr:3", "PP(0)", "k[x]/(x^3) is not the Kronecker algebra"),
    ("dvr:3", "R(1)[1]", "k[x]/(x^3) is not the Kronecker algebra"),
])
def test_module_literal_over_the_wrong_algebra_exits_2(algebra, module,
                                                       message):
    proc = subprocess.run(
        [sys.executable, "-m", "ppmod.cli", "pp", "eval", "--algebra",
         algebra, "--module", module, "--formula", "x1 = 0"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("literal", ["V/m^3", "V/m^9"])
def test_chain_literal_names_the_algebra_before_the_length(literal, capsys):
    # the Kronecker algebra has dimension 4: V/m^9 is refused for the
    # algebra, as V/m^3 is, not for a length outside 1..4
    assert main(["pp", "eval", "--algebra", "kronecker", "--module",
                 literal, "--formula", "x1*a = 0"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "kronecker is not" in out.err
    assert "outside" not in out.err
    assert "Traceback" not in out.err


TOWER_CAPS = [
    (["classify", "--n", "1", "--N"], "MAX_TOWER_N"),
    (["classify", "--N", "3", "--n"], "MAX_TOWER_HEIGHT"),
    (["realize", "--height", "0", "--stages", "2", "--N"], "MAX_TOWER_N"),
    (["realize", "--N", "5", "--stages", "2", "--height"], "MAX_TOWER_HEIGHT"),
    (["realize", "--N", "5", "--height", "0", "--stages"], "MAX_STAGES"),
    (["classify", "--N", "3", "--n", "1", "--dim-cap"],
     "MAX_CLASSIFY_DIM_CAP"),
]


@pytest.mark.parametrize("argv, cap", TOWER_CAPS)
def test_tower_size_above_its_cap_exits_2_before_building(argv, cap,
                                                          monkeypatch, capsys):
    import ppmod.cli

    def refused(*args):
        raise AssertionError("a tower was built")

    monkeypatch.setattr(ppmod.cli, "build_tower", refused)
    limit = getattr(ppmod.cli, cap)
    assert main(argv + [str(limit + 1)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: {argv[-1]} {limit + 1} is more than the "
                       f"limit of {limit}\n")


@pytest.mark.parametrize("argv, cap", TOWER_CAPS)
def test_tower_size_at_its_cap_is_built(argv, cap, monkeypatch, capsys):
    import ppmod.cli

    def reached(*args):
        raise ValueError("reached build_tower")

    monkeypatch.setattr(ppmod.cli, "build_tower", reached)
    assert main(argv + [str(getattr(ppmod.cli, cap))]) == 2
    assert capsys.readouterr().err == "error: reached build_tower\n"


# each Kronecker literal kind: its text at an index, its dimension at an
# index, and the function that builds it
MODULE_CAPS = [("PP({})", lambda i: 2 * i + 1, "kronecker_preprojective"),
               ("PI({})", lambda i: 2 * i + 1, "kronecker_preinjective"),
               ("R(1)[{}]", lambda i: 2 * i, "kronecker_regular")]


def largest_index(dim):
    """The largest index of a literal within MAX_MODULE_DIM."""
    from ppmod.cli import MAX_MODULE_DIM
    return max(i for i in range(MAX_MODULE_DIM) if dim(i) <= MAX_MODULE_DIM)


@pytest.mark.parametrize("literal, dim, builder", MODULE_CAPS,
                         ids=["PP", "PI", "R"])
def test_module_literal_above_its_cap_exits_2_before_building(
        literal, dim, builder, monkeypatch, capsys):
    import ppmod.cli

    def refused(*args):
        raise AssertionError("a module was built")

    monkeypatch.setattr(ppmod.cli, builder, refused)
    limit = ppmod.cli.MAX_MODULE_DIM
    for index in (largest_index(dim) + 1, 100_000):
        text = literal.format(index)
        assert main(["pp", "eval", "--algebra", "kronecker", "--module", text,
                     "--formula", "x1*a = 0"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"error: module literal {text!r} has dimension "
                           f"{dim(index)}, more than the limit of {limit}\n")


@pytest.mark.parametrize("literal, dim, builder", MODULE_CAPS,
                         ids=["PP", "PI", "R"])
def test_module_literal_at_its_cap_is_built(literal, dim, builder,
                                            monkeypatch, capsys):
    import ppmod.cli

    def reached(*args):
        raise ValueError(f"reached {builder}")

    monkeypatch.setattr(ppmod.cli, builder, reached)
    text = literal.format(largest_index(dim))
    assert main(["pp", "eval", "--algebra", "kronecker", "--module", text,
                 "--formula", "x1*a = 0"]) == 2
    assert capsys.readouterr().err == f"error: reached {builder}\n"


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_a_seed_outside_u64_exits_2_naming_it(seed, capsys):
    # random.Random seeds with |seed|: -s would repeat the draws of s
    with pytest.raises(SystemExit) as exc:
        main(["--seed", seed, "tube", "--tube", "m=1 n=[0] horizon=4"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    [line] = [ln for ln in out.err.splitlines() if repr(seed) in ln]
    assert "argument --seed" in line


@pytest.mark.parametrize("argv, line", [
    (["--seed", "-1", "suite", "all"],
     "argument --seed: needs a whole number of at least 0 and at most "
     f"{2 ** 64 - 1}, not '-1'"),
    (["--seed", str(2 ** 64), "suite", "all"],
     "argument --seed: needs a whole number of at least 0 and at most "
     f"{2 ** 64 - 1}, not '{2 ** 64}'"),
    (["classify", "--N", "x", "--n", "1"],
     "argument --N: needs a whole number, not 'x'"),
], ids=["seed-negative", "seed-2^64", "classify-N"])
def test_a_refused_option_value_names_its_range(argv, line, capsys):
    # argparse prints the type's own message, not the name of the function
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert out.err.splitlines()[-1].endswith(f"error: {line}")
    assert "invalid" not in out.err


def test_the_largest_u64_seed_is_accepted(capsys):
    assert main(["--seed", str(2 ** 64 - 1), "tube", "--tube",
                 "m=1 n=[0] horizon=4"]) == 0
    assert f"# seed {2 ** 64 - 1}" in capsys.readouterr().out.splitlines()


def test_ziegler_height_above_its_cap_exits_2_before_listing(monkeypatch,
                                                            capsys):
    import ppmod.cli

    def refused(height):
        raise AssertionError("points were listed")

    monkeypatch.setattr(ppmod.cli, "points", refused)
    limit = ppmod.cli.MAX_ZIEGLER_HEIGHT
    assert main(["ziegler", "points", "--n", str(limit + 1)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: --n {limit + 1} is more than the limit of "
                       f"{limit}\n")


def test_ziegler_height_at_its_cap_is_listed(monkeypatch, capsys):
    import ppmod.cli

    def reached(height):
        raise ValueError("reached points")

    monkeypatch.setattr(ppmod.cli, "points", reached)
    # the suites and tests list heights <= 3
    assert ppmod.cli.MAX_ZIEGLER_HEIGHT >= 3
    assert main(["ziegler", "points", "--n",
                 str(ppmod.cli.MAX_ZIEGLER_HEIGHT)]) == 2
    assert capsys.readouterr().err == "error: reached points\n"


def test_tower_caps_cover_every_size_in_use():
    # realize --N 10 --height 0 --stages 9 (above) and the height-2
    # ladders of the ray-tube suite and the golden realize outputs
    from ppmod.cli import (MAX_ALGEBRA_DIM, MAX_STAGES, MAX_TOWER_HEIGHT,
                           MAX_TOWER_N)
    from ppmod.tower import tower_dimension
    assert MAX_TOWER_N >= 10 and MAX_TOWER_HEIGHT >= 2 and MAX_STAGES >= 9
    assert MAX_STAGES < MAX_TOWER_N
    assert tower_dimension(MAX_TOWER_N, MAX_TOWER_HEIGHT) <= MAX_ALGEBRA_DIM


def test_module_literal_over_its_algebra_is_evaluated():
    code, lines = run_cli(["pp", "eval", "--algebra", "kronecker",
                           "--module", "R(1)[1]", "--formula", "x1*a = 0"])
    assert code == 0
    assert "value_dim\t1\tambient 2" in lines


def test_a_left_formula_is_evaluated_on_a_left_module(capsys):
    # the module literal is read over the formula's algebra, the opposite
    # one for a left formula; on the commutative dvr:3 the left and right
    # annihilators of x agree
    def stdout(*argv):
        assert main(["pp", "eval", "--algebra", "dvr:3", "--module", "V/m^2",
                     *argv]) == 0
        return capsys.readouterr().out

    right = stdout("--formula", "x1*x = 0")
    assert stdout("--side", "left", "--formula", "x*x1 = 0") == right
    assert "value_dim\t1\tambient 2" in right.splitlines()
    assert main(["pp", "eval", "--algebra", "tower:3:1", "--side", "left",
                 "--module", "regular", "--formula", "L0~0*x1 = 0"]) == 0
    assert "value_dim\t4\tambient 5" in capsys.readouterr().out.splitlines()


def test_a_kronecker_literal_under_a_left_formula_exits_2(capsys):
    # the Kronecker literals are right modules; a left formula asks for a
    # module over kronecker^op, which has no such literal
    assert main(["pp", "eval", "--algebra", "kronecker", "--side", "left",
                 "--module", "PP(1)", "--formula", "a*x1 = 0"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert out.err.startswith("error: ") and "kronecker^op" in out.err


@pytest.mark.parametrize("argv", [
    ["ziegler", "points", "--n", "0"],
    ["realize", "--N", "3", "--height", "1", "--stages", "5"],
])
def test_closed_stdout_exits_without_traceback(argv):
    # as in `ppmod ... | head -0`: the reader has gone before the output
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "ppmod.cli"] + argv,
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.returncode in (0, 1, 2)


@pytest.mark.parametrize("op, height", [("is-closed", "-1"),
                                        ("closure", "-3")])
def test_ziegler_set_at_a_negative_height_exits_2(op, height, capsys):
    # as `ziegler points`: no spectrum exists below height 0
    assert main(["ziegler", op, "--n", height, "--set", ""]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: height must be >= 0\n"


def test_probe_budget_above_its_cap_exits_2_before_any_work(monkeypatch,
                                                           capsys):
    import ppmod.cli

    def refused(*args):
        raise AssertionError("the algebra was built")

    monkeypatch.setattr(ppmod.cli, "kronecker_algebra", refused)
    limit = ppmod.cli.MAX_PROBE_BUDGET
    assert main(["probe", "kronecker", "--budget", str(limit + 1)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: --budget {limit + 1} is more than the limit "
                       f"of {limit}\n")


def test_probe_budget_at_its_cap_is_accepted(monkeypatch, capsys):
    import ppmod.cli

    def reached(*args, **kwargs):
        raise ValueError("reached kronecker_probe")

    monkeypatch.setattr(ppmod.cli, "kronecker_probe", reached)
    assert main(["probe", "kronecker", "--budget",
                 str(ppmod.cli.MAX_PROBE_BUDGET)]) == 2
    assert capsys.readouterr().err == "error: reached kronecker_probe\n"


def test_size_caps_cover_every_size_in_use_and_no_more():
    # the stage probes use budget 10, the classification suite dim cap 10
    from ppmod.catalog import kronecker_preprojective
    from ppmod.cli import (MAX_CLASSIFY_DIM_CAP, MAX_PROBE_BUDGET,
                           MAX_PROBE_DIM, MAX_TOWER_HEIGHT, MAX_TOWER_N)
    from ppmod.algebra import kronecker_algebra
    from ppmod.fields import GF
    from ppmod.tower import all_labels, build_tower, construct_label
    assert MAX_PROBE_BUDGET >= 10 and MAX_CLASSIFY_DIM_CAP >= 10
    # a strict step lowers the total dimension, so the longest chain over
    # the largest universe has fewer steps than the budget cap
    kron = kronecker_algebra(GF(2))
    dims = [kronecker_preprojective(kron, i).dim
            for i in range((MAX_PROBE_DIM + 1) // 2)]
    assert max(dims) == MAX_PROBE_DIM and sum(dims) < MAX_PROBE_BUDGET
    # every label of the largest tower is within the dim cap
    tower = build_tower(MAX_TOWER_N, MAX_TOWER_HEIGHT, GF(2))
    assert max(construct_label(tower, lab).dim
               for lab in all_labels(tower)) == MAX_CLASSIFY_DIM_CAP


# argv fragments for the contract fuzz: each option's valid values and
# faulty ones.  Numbers stay small, or far above a cap, so every example
# runs in well under a second.  `suite` and `run` are left out: a suite
# takes seconds and a scenario needs a file.
SMALL, BAD_NUMBERS = ("1", "2", "3"), ("0", "-1", "x", "", "1000")
FUZZ_GLOBALS = {"--field": (("2", "3", "rational"), ("4", "0", "x")),
                "--seed": (("0", "7"), ("-1", "x")),
                "--json": (None, None)}
# pp: (algebra, formulas, modules) over it
FUZZ_PP = [
    ("dvr:3", ("x1*x = 0", "E y1 . (x1 - y1*x = 0)", "x1*x^2 = 0",
               "E y1 . (x1 - y1*x = 0 & y1*x^2 = 0)", "x1*x - x2 = 0"),
     ("V/m^1", "V/m^2", "V/m^3", "regular")),
    ("kronecker", ("x1*a = 0", "E y1 . (x1 - y1*b = 0)", "x1*e1 = 0",
                   "E y1 y2 . (x1 - y1*a - y2*b = 0)"),
     ("PP(0)", "PP(2)", "PI(1)", "R(0)[1]", "R(inf)[2]", "R(1)[1]",
      "regular")),
    ("tower:3:1", ("x1*eps1 = 0", "E y1 . (x1 - y1*x = 0)"),
     ("regular",)),
]
BAD_PP = (("dvr:0", "dvr:x", "tower:2", "dvr:99", "ring"),
          ("((", "", "x1*z = 0", "x1 = x2", "E y1 . (x1 = 0)", "x1 * = 0"),
          ("V/m^0", "V/m^99", "V/m^x", "PP(-1)", "PP(x)", "R(0)[0]", "R(",
           "R(x)[1]", "module", "PP(100000)"))
FUZZ_COMMANDS = {
    "classify": ((), {"--N": (SMALL, BAD_NUMBERS), "--n": (SMALL, BAD_NUMBERS),
                      "--dim-cap": (SMALL + ("8",), BAD_NUMBERS)}),
    "ziegler": (("points", "closure", "is-closed"), {
        "--n": (("0",) + SMALL, BAD_NUMBERS),
        "--set": (("F0 Prufer", "Adic", "Q", "F1 F0 Adic", "F0 FinLen(2)",
                   "F1 Prufer, Q", ""),
                  ("T(-1)", "FinLen(0)", "F2 Q", "point", ",,"))}),
    "tube": ((), {
        "--tube": (("m=2 n=[1,0] horizon=6", "m=1 n=[2] horizon=4",
                    "m=0 n=[] horizon=3"),
                   ("m=2 n=[1] horizon=6", "m=2 n=[1,0] horizon=-1",
                    "m=-1 n=[] horizon=2", "m=x", "")),
        "--dot": (None, None),
        "--hom-dim": (("0,0,3->0,0,5", "0,0,1->0,0,1", "1,0,1->1,0,2"),
                      ("9,9,9->0,0,0", "0,0->0,0", "-1,0,1->0,0,1", "0,0,3",
                       "x"))}),
    "probe": (("kronecker",), {
        "--budget": (SMALL + ("50",), BAD_NUMBERS + ("51",)),
        "--max-dim": (("3", "5", "9"), ("2", "14", "-1", "x"))}),
    "realize": ((), {"--N": (SMALL + ("4",), BAD_NUMBERS),
                     "--height": (("0", "1"), BAD_NUMBERS),
                     "--stages": (("1", "2"), BAD_NUMBERS)}),
}


# the rows that report a failed assertion, the only source of exit 1
FAILED_ROWS = ("SQUARE_FAILED(", "hom_bound_ok\tFalse", "MISMATCH", "FAIL\t")


def fuzz_argv(rng):
    """One argv: a few global options, a command with its positional and
    every option (a flag half the time), and in seven argvs of ten one
    fault: a faulty value, a missing option or a stray token."""
    cmd = rng.choice(sorted(FUZZ_COMMANDS) + ["pp"])
    if cmd == "pp":
        algebra, formulas, modules = rng.choice(FUZZ_PP)
        bad_algebras, bad_formulas, bad_modules = BAD_PP
        positionals = ("dual", "eval", "implies", "print")
        options = {"--algebra": ((algebra,), bad_algebras),
                   "--side": (("right",), ("left", "up")),
                   "--formula": (formulas, bad_formulas),
                   "--formula2": (formulas, bad_formulas),
                   "--module": (modules, bad_modules)}
    else:
        positionals, options = FUZZ_COMMANDS[cmd]
    # (option name, or None for a bare token; valid values; faulty ones),
    # values None for a flag
    slots = [(name, *FUZZ_GLOBALS[name])
             for name in rng.sample(sorted(FUZZ_GLOBALS), rng.randint(0, 2))]
    slots.append((None, (cmd,), (cmd,)))
    if positionals:
        slots.append((None, positionals, ("open",)))
    slots += [(name, *values) for name, values in options.items()]
    fault = rng.randrange(len(slots) + 1) if rng.random() < 0.7 else None
    argv = []
    for i, (name, valid, faulty) in enumerate(slots):
        if i == fault and rng.random() < 0.3 or \
                valid is None and rng.random() < 0.5:
            continue
        if name is not None:
            argv.append(name)
        if valid is not None:
            argv.append(rng.choice(faulty if i == fault else valid))
    if fault == len(slots):
        argv.insert(rng.randint(0, len(argv)), rng.choice(("--x", "-h", "y")))
    return argv


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_any_argv_keeps_the_exit_code_contract(seed):
    # exit 0, 1 or 2; no exception but argparse's SystemExit leaves main,
    # and nothing prints a traceback.  The argv comes from a plain seeded
    # rng, which draws the commands and faults evenly (hypothesis's own
    # draws lean to the first choices).
    argv = fuzz_argv(random.Random(seed))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # usage errors and -h, from argparse
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    # exit 1 only from an assertion that failed, named on its row
    if code == 1:
        assert any(row in out.getvalue() for row in FAILED_ROWS), argv
