import pytest

from ppmod.fields import GF
from ppmod.algebra import kronecker_algebra, truncated_dvr
from ppmod.ppformula import (annihilator, bottom, divisibility, dual, pp_meet,
                             pp_sum, tautology)
from ppmod.ppsyntax import LEFT, RIGHT, format_formula, parse_formula
from ppmod.tower import build_tower

F2 = GF(2)


@pytest.fixture(scope="module")
def d3():
    return truncated_dvr(3, F2)


def test_parse_simple_annihilator(d3):
    phi = parse_formula(d3, "x1*x = 0")
    assert phi.n == 1 and phi.l == 0 and phi.m == 1
    assert phi.equivalent(annihilator(d3, d3.el_from_label("x")))


def test_parse_divisibility_with_e_block(d3):
    phi = parse_formula(d3, "E y1 . (x1 - y1*x = 0)")
    assert phi.l == 1
    assert phi.equivalent(divisibility(d3, d3.el_from_label("x")))


def test_parse_conjunction_and_combo_coefficient(d3):
    phi = parse_formula(d3, "(x1*(1 + x) = 0 & x1*x^2 = 0)")
    assert phi.m == 2
    assert phi.n == 1


def test_roundtrip_canonical_forms(d3):
    kron = kronecker_algebra(F2)
    formulas = [
        tautology(d3), bottom(d3),
        divisibility(d3, d3.el_from_label("x")),
        annihilator(d3, d3.el_from_label("x^2")),
        pp_sum(divisibility(d3, d3.el_from_label("x")),
               annihilator(d3, d3.el_from_label("x"))),
        pp_meet(divisibility(d3, d3.el_from_label("x^2")),
                annihilator(d3, d3.el_from_label("x"))),
        divisibility(kron, kron.el_from_label("a")),
        dual(divisibility(d3, d3.el_from_label("x"))),
        dual(annihilator(kron, kron.el_from_label("b"))),
    ]
    for phi in formulas:
        # a dual is over the opposite algebra: written as a left formula
        # over the algebra it came from
        base, side = (phi.algebra, RIGHT) if phi.algebra in (d3, kron) \
            else (phi.algebra.op, LEFT)
        text = format_formula(phi, side)
        back = parse_formula(base, text, side)
        assert back.algebra is phi.algebra
        assert format_formula(back, side) == text    # print . parse stable
        assert back.equivalent(phi)                  # and semantics kept
        assert back.n == phi.n


def test_unused_x_variable_round_trips(d3):
    # a two-variable formula that only constrains x2
    from ppmod.ppformula import PpFormula
    x = d3.el_from_label("x")
    phi = PpFormula(d3, 2, [[d3.zero_el()], [x]])
    text = format_formula(phi)
    back = parse_formula(d3, text)
    assert back.n == 2
    assert format_formula(back) == text


def test_left_side_orientation(d3):
    phi = parse_formula(d3, "x*x1 = 0", side=LEFT)
    assert phi.algebra is d3.op
    assert phi.equivalent(annihilator(d3.op, d3.el_from_label("x")))
    assert format_formula(phi, LEFT) == "(x*x1 = 0)"
    assert format_formula(phi) == "(x1*x = 0)"


@pytest.mark.parametrize("call", [
    lambda d3: parse_formula(d3, "x1*x = 0", "up"),
    lambda d3: format_formula(tautology(d3), "up")], ids=["parse", "format"])
def test_a_side_other_than_right_or_left_is_refused(d3, call):
    with pytest.raises(ValueError, match="side must be 'right' or 'left'"):
        call(d3)


def test_undeclared_y_rejected(d3):
    with pytest.raises(ValueError):
        parse_formula(d3, "(x1 - y1*x = 0)")


def test_parse_errors(d3):
    with pytest.raises(ValueError):
        parse_formula(d3, "x1*x = 1")
    with pytest.raises(ValueError):
        parse_formula(d3, "E y1 . x1")


@pytest.mark.parametrize("text", ["x1*x = 0 ", " x1*x = 0", "\tx1*x = 0\n",
                                  "  E y1 . (x1 - y1*x = 0)  "])
def test_whitespace_around_a_formula_is_skipped(d3, text):
    # whitespace is skipped at either end, as between tokens
    assert format_formula(parse_formula(d3, text)) == \
        format_formula(parse_formula(d3, text.strip()))


@pytest.mark.parametrize("text, side, message", [
    ("x1*x + x0 = 0", RIGHT, "numbered from 1, not x0"),
    ("E y1 . (x1 + y1*x + x0*x^2 = 0)", RIGHT, "numbered from 1, not x0"),
    ("x*x1 + x0 = 0", LEFT, "numbered from 1, not x0"),
    ("E y0 . (x1 - y0*x = 0)", RIGHT, "numbered from 1, not y0"),
    ("x00 = 0", RIGHT, "numbered from 1, not x00"),
    ("E y1 y1 . (x1 - y1*x = 0)", RIGHT, "y1 is declared twice"),
    ("E y2 y1 y2 . (x1 - x*y1 - y2 = 0)", LEFT, "y2 is declared twice"),
], ids=["x0", "x0-with-y", "x0-left", "y0", "x00", "y1-twice",
        "y2-twice-left"])
def test_variable_zero_and_a_repeated_y_are_refused(d3, text, side,
                                                   message):
    # x0 would index row -1, the last variable, and a second y1 would add
    # a bound variable no equation uses
    with pytest.raises(ValueError, match=message):
        parse_formula(d3, text, side)


def test_x_numbered_above_the_limit_is_refused(d3):
    # the parser builds one row per x up to the largest index
    from ppmod.ppsyntax import MAX_X_INDEX
    assert parse_formula(d3, f"x{MAX_X_INDEX}*x = 0").n == MAX_X_INDEX
    for text in (f"x{MAX_X_INDEX + 1} = 0", "x1 + x100000000 = 0",
                 f"E y1 . (x1 - y1 + x{MAX_X_INDEX + 1} = 0)"):
        with pytest.raises(ValueError, match=f"above the limit of "
                                             f"x{MAX_X_INDEX}"):
            parse_formula(d3, text)


@pytest.mark.parametrize("field", [F2, GF(3)], ids=str)
def test_tower_path_formulas_round_trip(field):
    # from R_1 on, vertex 0's idempotent is a path that is not the unit: a
    # printed label reads back as that path, never as the unit
    tower = build_tower(2, 3, field)
    for alg in tower.algebras[1:]:
        for i, label in enumerate(alg.labels):
            a = alg.basis_el(i)
            for phi in (annihilator(alg, a), divisibility(alg, a)):
                back = parse_formula(alg, format_formula(phi))
                assert (back.l, back.m, back.cells) == \
                    (phi.l, phi.m, phi.cells), (alg.name, label)


@pytest.mark.parametrize("make", [
    lambda f: kronecker_algebra(f), lambda f: build_tower(3, 1, f).top],
    ids=["kronecker", "tower:3:1"])
@pytest.mark.parametrize("field", [F2, GF(3)], ids=str)
def test_a_left_formula_has_one_encoding(make, field):
    # a | x1 written on the left over A is divisibility over A.op: the two
    # imply each other and share one reduced formula
    alg = make(field)
    for label in alg.labels:
        a = alg.el_from_label(label)
        parsed = parse_formula(alg, f"E y1 . (x1 - {label}*y1 = 0)", LEFT)
        built = divisibility(alg.op, a)
        assert parsed.algebra is built.algebra is alg.op
        assert parsed.implies(built) and built.implies(parsed)
        assert parsed.reduced() is built.reduced()
