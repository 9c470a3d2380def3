"""Textual pp-formula syntax: parse and print, round-trip stable.

Grammar (one line):

    formula := ['E' yvar+ '.'] '(' eq ('&' eq)* ')'
    eq      := lincomb '=' '0'
    lincomb := ['-'] term (('+'|'-') term)*
    term    := var ['*' coef]          (right side)
             | [coef '*'] var          (left side)
    coef    := label | int | '(' algexpr ')'
    algexpr := algterm (('+'|'-') algterm)*
    algterm := ['-'] [num '*'] label | ['-'] num
    num     := int ['/' int]           ('/' over QQ only)

Variables are x1..xn, n at most MAX_X_INDEX, and y1..yl (y's must be
declared in the E-block); anything else is an algebra basis label, with
'1' the unit.  A fraction a/b is a rational coefficient, so over GF(p)
'/' is refused: a coefficient there is an integer residue.  The printer
emits a canonical form in the same grammar: every x-variable appears at
least once (unused ones get a zero-coefficient term), so the arity always
round-trips.

The side, RIGHT or LEFT, is syntax only: a left formula over A is read
into and printed from the formula over A.op with the same coefficient
vectors (A.op has A's basis and labels; see ppformula).
"""

from __future__ import annotations

import re

from .algebra import FDAlgebra
from .ppformula import PpFormula

RIGHT = "right"
LEFT = "left"

# The largest x index: the parser makes a row per x up to it.  The tests,
# scripts and README use at most x2.  `pp dual` of `x8 = 0` over dvr:24
# takes 0.15 s over GF(2), 0.50 s over GF(3) and 0.40 s over QQ as a
# subprocess on a 2-CPU Xeon, 5.3 s at x16 over QQ in-process.
MAX_X_INDEX = 8

_VAR_RE = re.compile(r"^([xy])(\d+)$")
_TOKEN_RE = re.compile(r"\s*([()&=+*./-]|[A-Za-z0-9_^~]+)")


def _tokenize(text: str) -> list[str]:
    """The tokens of text; whitespace around them is skipped."""
    text = text.rstrip()
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ValueError(f"cannot tokenize at position {pos}: "
                             f"{text[pos:pos + 10]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, alg: FDAlgebra, tokens: list[str], side: str):
        self.alg = alg
        self.toks = tokens
        self.pos = 0
        self.side = side

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expect=None):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of formula")
        if expect is not None and tok != expect:
            raise ValueError(f"expected {expect!r}, found {tok!r} "
                             f"at token {self.pos}")
        self.pos += 1
        return tok

    def parse(self) -> PpFormula:
        yvars: list[int] = []
        if self.peek() == "E":
            self.take("E")
            while self.peek() != ".":
                kind, idx = self._take_var()
                if kind != "y":
                    raise ValueError("E-block must list y-variables")
                if idx in yvars:
                    raise ValueError(f"y{idx} is declared twice")
                yvars.append(idx)
            self.take(".")
        wrapped = self.peek() == "("
        if wrapped:
            self.take("(")
        eqs = [self.parse_eq()]
        while self.peek() == "&":
            self.take("&")
            eqs.append(self.parse_eq())
        if wrapped:
            self.take(")")
        if self.peek() is not None:
            raise ValueError(f"trailing tokens from {self.peek()!r}")
        n = 0
        for eq in eqs:
            for (kind, idx), _ in eq:
                if kind == "x":
                    n = max(n, idx)
                elif idx not in yvars:
                    raise ValueError(f"y{idx} not declared in the E-block")
        if n == 0:
            raise ValueError("formula mentions no x-variable")
        ymap = {idx: i for i, idx in enumerate(sorted(yvars))}
        z = self.alg.zero_el()
        cells: dict = {}
        for col, eq in enumerate(eqs):
            for (kind, idx), coef in eq:
                cell = (idx - 1 if kind == "x" else n + ymap[idx], col)
                cells[cell] = self.alg.add_el(cells.get(cell, z), coef)
        return PpFormula.from_cells(
            self.alg if self.side == RIGHT else self.alg.op, n, len(yvars),
            len(eqs), cells)

    def parse_eq(self):
        terms = self.parse_lincomb()
        self.take("=")
        zero = self.take()
        if zero != "0":
            raise ValueError("equations must end in '= 0'")
        return terms

    def parse_lincomb(self):
        terms = []
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        terms.append(self.parse_term(sign))
        while self.peek() in ("+", "-"):
            sign = 1 if self.take() == "+" else -1
            terms.append(self.parse_term(sign))
        return terms

    def parse_term(self, sign: int):
        if self.side == RIGHT:
            var = self._take_var()
            coef = self.alg.unit
            if self.peek() == "*":
                self.take("*")
                coef = self.parse_coef()
        else:
            # left side: coefficient (if any) precedes the variable
            if self._at_var():
                var = self._take_var()
                coef = self.alg.unit
            else:
                coef = self.parse_coef()
                self.take("*")
                var = self._take_var()
        if sign < 0:
            coef = self.alg.neg_el(coef)
        return (var, coef)

    def _at_var(self) -> bool:
        tok = self.peek()
        return tok is not None and _VAR_RE.match(tok) is not None

    def _take_var(self):
        tok = self.take()
        m = _VAR_RE.match(tok)
        if not m:
            raise ValueError(f"expected a variable, found {tok!r}")
        if int(m.group(2)) == 0:
            raise ValueError(f"variables are numbered from 1, not {tok}")
        if m.group(1) == "x" and int(m.group(2)) > MAX_X_INDEX:
            raise ValueError(f"{tok} is numbered above the limit of "
                             f"x{MAX_X_INDEX}")
        return (m.group(1), int(m.group(2)))

    def parse_coef(self):
        tok = self.peek()
        if tok == "(":
            self.take("(")
            el = self.parse_algexpr()
            self.take(")")
            return el
        self.take()
        if tok.isdigit():
            return self.alg.scalar_el(self.alg.field.of(int(tok)))
        return self.alg.el_from_label(tok)

    def parse_algexpr(self):
        total = self.alg.zero_el()
        sign = 1
        while True:
            total = self.alg.add_el(total, self.parse_algterm(sign))
            if self.peek() in ("+", "-"):
                sign = 1 if self.take() == "+" else -1
            else:
                return total

    def parse_algterm(self, sign: int):
        # a term's own sign, as the printer writes a negative rational
        # coefficient: "1 + -1*x"
        if self.peek() == "-":
            self.take()
            sign = -sign
        tok = self.take()
        scalar = self.alg.field.one()
        if tok.isdigit():
            scalar = self.parse_num(tok)
            if self.peek() != "*":
                el = self.alg.scalar_el(scalar)
                return self.alg.neg_el(el) if sign < 0 else el
            self.take("*")
            tok = self.take()
        el = self.alg.smul_el(scalar, self.alg.el_from_label(tok))
        return self.alg.neg_el(el) if sign < 0 else el

    def parse_num(self, tok: str):
        """The field element of the int tok, divided by the int after a
        '/' if one follows (over QQ only)."""
        f = self.alg.field
        if self.peek() != "/":
            return f.of(int(tok))
        self.take("/")
        below = self.take()
        if f.p is not None:
            raise ValueError(f"'{tok}/{below}' is a fraction: over "
                             f"GF({f.p}) a coefficient is an integer residue")
        if not below.isdigit() or int(below) == 0:
            raise ValueError(f"expected a nonzero integer after '/', "
                             f"found {below!r}")
        return f.of(int(tok)) / int(below)


def parse_formula(alg: FDAlgebra, text: str, side: str = RIGHT) -> PpFormula:
    """The formula text writes: over alg for RIGHT, over alg.op for LEFT."""
    if side not in (RIGHT, LEFT):
        raise ValueError("side must be 'right' or 'left'")
    return _Parser(alg, _tokenize(text), side).parse()


def _coef_str(alg: FDAlgebra, v) -> str | None:
    """None means coefficient one (print the bare variable)."""
    f = alg.field
    if v == alg.unit:
        return None
    nz = [(i, c) for i, c in enumerate(v) if c != f.zero()]
    if len(nz) == 1 and nz[0][1] == f.one():
        return alg.labels[nz[0][0]]
    terms = []
    for i, c in nz:
        terms.append(alg.labels[i] if c == f.one() else f"{c}*{alg.labels[i]}")
    if not terms:
        return "(0)"
    return "(" + " + ".join(terms) + ")"


def format_formula(phi: PpFormula, side: str = RIGHT) -> str:
    """phi in canonical form, its coefficients written on the given side."""
    if side not in (RIGHT, LEFT):
        raise ValueError("side must be 'right' or 'left'")
    alg = phi.algebra
    n, l = phi.n, phi.l

    def term(row, coef):
        var = f"x{row + 1}" if row < n else f"y{row - n + 1}"
        cs = _coef_str(alg, coef)
        if cs is None:
            return var
        if side == RIGHT:
            return f"{var}*{cs}"
        return f"{cs}*{var}"

    # one equation per condition with a cell, its terms in variable order
    terms: dict = {}
    for (row, col), coef in sorted(phi.cells.items(),
                                   key=lambda cell: cell[0][::-1]):
        terms.setdefault(col, []).append(term(row, coef))
    eqs = [" + ".join(ts) + " = 0" for ts in terms.values()]
    mentioned = {row for row, _ in phi.cells if row < n}
    missing = [i for i in range(n) if i not in mentioned]
    if missing or not eqs:
        idxs = list(range(n)) if not eqs else missing
        extra = " + ".join(f"x{i + 1}*(0)" if side == RIGHT
                           else f"(0)*x{i + 1}" for i in idxs)
        eqs.append(extra + " = 0")
    body = "(" + " & ".join(eqs) + ")"
    if l:
        ys = " ".join(f"y{i + 1}" for i in range(l))
        return f"E {ys} . {body}"
    return body
