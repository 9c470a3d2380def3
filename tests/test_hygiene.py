"""Static checks on the package source."""

import ast
import importlib
import itertools
from pathlib import Path
from typing import NamedTuple

import pytest

import ppmod

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "ppmod"
TESTS = ROOT / "tests"


def unread_locals(tree: ast.AST):
    """'function:line: name' for each name a function assigns but never
    reads (a read in a nested function counts; '_' is exempt)."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored: dict[str, int] = {}
        read: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    read.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
        for name, line in stored.items():
            if name != "_" and name not in read:
                yield f"{fn.name}:{line}: {name}"


def unread_imports(tree: ast.Module):
    """'line: name' for each name a module-level import binds that the
    module never reads (__future__ imports are exempt)."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                              ast.Store)}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield f"{stmt.lineno}: {name}"


def definitions(tree: ast.Module):
    """(line, name) of each module-level function or class and
    (line, 'Class.name') of each method of a module-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for stmt in tree.body:
        if isinstance(stmt, defs):
            yield stmt.lineno, stmt.name
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, defs[:2]):
                    yield item.lineno, f"{stmt.name}.{item.name}"


def private_definitions(tree: ast.Module):
    """(line, name) of each private ('_name', not dunder) definition (see
    definitions)."""
    for line, name in definitions(tree):
        own = name.rsplit(".", 1)[-1]
        if own.startswith("_") and not own.endswith("__"):
            yield line, name


def module_names(tree: ast.Module):
    """(line, name) of each name a module-level assignment binds, plain,
    annotated or augmented, every name of a tuple or list target
    included."""
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else \
            [stmt.target] if isinstance(stmt, (ast.AnnAssign,
                                               ast.AugAssign)) else []
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name) and \
                        isinstance(node.ctx, ast.Store):
                    yield node.lineno, node.id


# the method each operator calls; no type is known here, so an operator
# anywhere reads its method on every class (a negative literal reads none)
OPERATOR_DUNDERS = {ast.Add: "__add__", ast.Sub: "__sub__",
                    ast.Mult: "__mul__", ast.USub: "__neg__"}


def self_reads(trees) -> tuple[dict[int, str], dict[str, set[str]]]:
    """(the innermost class of each attribute of self, by the node's id,
    the bases of each class by name) in the given trees."""
    owner: dict[int, str] = {}
    bases: dict[str, set[str]] = {}
    for tree in trees:
        # ast.walk meets an outer class first, so an inner one overwrites
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                bases.setdefault(cls.name, set()).update(
                    getattr(b, "id", getattr(b, "attr", ""))
                    for b in cls.bases)
                for node in ast.walk(cls):
                    if isinstance(node, ast.Attribute) and \
                            getattr(node.value, "id", None) == "self":
                        owner[id(node)] = cls.name
    return owner, bases


def references(trees) -> tuple[set[str], set[str]]:
    """(every name read or imported by 'from ... import', every attribute
    taken, with the method of each operator used: see OPERATOR_DUNDERS)
    in the given trees.  An attribute of self inside class D is taken as
    'B.attr' for D and each of its bases B, by name, so it reads that
    method on D and its bases only; any other receiver's attribute, of
    unknown type, is taken by its bare name and reads the method of that
    name on every class."""
    trees = list(trees)
    names: set[str] = set()
    attrs: set[str] = set()
    owner, bases = self_reads(trees)
    own: set[tuple[str, str]] = set()  # (class, attribute of self)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if id(node) in owner:
                    own.add((owner[id(node)], node.attr))
                else:
                    attrs.add(node.attr)
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) or \
                    isinstance(node, ast.UnaryOp) and \
                    not isinstance(node.operand, ast.Constant):
                if type(node.op) in OPERATOR_DUNDERS:
                    attrs.add(OPERATOR_DUNDERS[type(node.op)])
            elif isinstance(node, ast.Name) and \
                    not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    for cls, attr in own:
        lineage, pending = set(), [cls]
        while pending:
            c = pending.pop()
            if c not in lineage:
                lineage.add(c)
                pending.extend(bases.get(c, ()))
        attrs.update(f"{c}.{attr}" for c in lineage)
    return names, attrs


def unused_private(tree: ast.Module, used: set[str]) -> list[str]:
    """'line: name' for each private definition of tree, a method by its
    own name, read neither by its own name nor, for a method, as
    'Class.name' (see references) in used."""
    out = []
    for line, name in private_definitions(tree):
        own = name.rsplit(".", 1)[-1]
        if own not in used and name not in used:
            out.append(f"{line}: {own}")
    return out


def uncalled_public(module: str, tree: ast.Module, names: set[str],
                    attrs: set[str], traced: set[str], kept) -> list[str]:
    """'line: name' for each public definition of tree (see definitions)
    that is not read, whose name is not in traced and whose 'module.name'
    is not in kept; an operator's method (see OPERATOR_DUNDERS) counts as
    public.  A method is read when its own name or 'Class.name' is in
    attrs, a module-level function or class when its name is in names
    (see references): a local or an unrelated attribute of the same name
    does not count, nor does a read of self in an unrelated class."""
    out = []
    operators = set(OPERATOR_DUNDERS.values())
    for line, name in definitions(tree):
        own = name.rsplit(".", 1)[-1]
        read = attrs if "." in name else names
        private = own.startswith("_") and own not in operators
        if not (private or own in read or name in read or name in traced
                or f"{module}.{name}" in kept):
            out.append(f"{line}: {name}")
    return out


def public_options(tree: ast.Module):
    """(line, name, callee, position, defaulted) for each named parameter
    of a public function, method or constructor of tree.  name is
    'function.param', 'Class.method.param' or, for a parameter of a
    class's __init__, 'Class.param'; callee is the name a call uses (the
    class's for __init__); position is the parameter's index among a
    call's positional arguments (self and cls not counted), None for a
    keyword-only one; defaulted says whether it has a default.  Fields
    declared in a class body, as a NamedTuple's are, are not parameters
    here."""
    fdefs = (ast.FunctionDef, ast.AsyncFunctionDef)
    fns = []  # (definition, name, callee, leading self or cls: 0 or 1)
    for stmt in tree.body:
        if isinstance(stmt, fdefs) and not stmt.name.startswith("_"):
            fns.append((stmt, stmt.name, stmt.name, 0))
        if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
            for fn in stmt.body:
                if not isinstance(fn, fdefs):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                if fn.name == "__init__":
                    fns.append((fn, stmt.name, stmt.name, 1))
                elif not fn.name.startswith("_"):
                    fns.append((fn, f"{stmt.name}.{fn.name}", fn.name,
                                0 if static else 1))
    for fn, name, callee, bound in fns:
        a = fn.args
        pos = a.posonlyargs + a.args
        first_default = len(pos) - len(a.defaults)
        for i in range(bound, len(pos)):
            yield (fn.lineno, f"{name}.{pos[i].arg}", callee, i - bound,
                   i >= first_default)
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            yield fn.lineno, f"{name}.{arg.arg}", callee, None, \
                default is not None


def option_setters(trees) -> tuple[dict[str, list], set[str]]:
    """(setters, listed) over the calls in the given trees.  setters maps
    each called name or attribute to its calls, each as (the positional
    arguments, a dict from each keyword to its argument, with the key '**'
    for a '**' argument).  listed holds every name or attribute placed in
    a dict, list or tuple display: a function in a table is called through
    the table.  A display under a subscript's slice, as in the annotation
    tuple[Module, ModuleMap], is no table."""
    calls: dict[str, list] = {}
    listed: set[str] = set()
    for tree in trees:
        sliced = {id(n) for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript)
                  for n in ast.walk(node.slice)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                callee = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                if callee is not None:
                    calls.setdefault(callee, []).append((node.args, {
                        k.arg or "**": k.value for k in node.keywords}))
            elif isinstance(node, (ast.Dict, ast.List, ast.Tuple)) and \
                    id(node) not in sliced:
                items = node.values if isinstance(node, ast.Dict) else \
                    node.elts
                listed.update(e.id if isinstance(e, ast.Name) else e.attr
                              for e in items
                              if isinstance(e, (ast.Name, ast.Attribute)))
    return calls, listed


def passed_values(calls, param: str, position):
    """What each call passes for a parameter at the given position (None
    for a keyword-only one): the repr of a literal argument, '?' for any
    other argument or for a '*' or '**' argument that may pass it, None
    where the call leaves the default."""
    for args, keywords in calls:
        plain = list(itertools.takewhile(
            lambda a: not isinstance(a, ast.Starred), args))
        if param in keywords:
            arg = keywords[param]
        elif position is not None and position < len(plain):
            arg = plain[position]
        else:
            spread = "**" in keywords or \
                (position is not None and len(plain) < len(args))
            yield "?" if spread else None
            continue
        try:
            yield repr(ast.literal_eval(arg))
        except (ValueError, TypeError):
            yield "?"


def unset_options(module: str, tree: ast.Module, setters, listed: set[str],
                  kept, kept_options) -> list[str]:
    """'line: name' for each defaulted public parameter of tree (see
    public_options) that no call passes (see option_setters), by keyword,
    by position or through '*' or '**', and 'line: name = value' for a
    public parameter, defaulted or not, that every call passes as the same
    literal value: a parameter with one value in use is a constant.
    Functions in listed, names whose 'module.name' is in kept and
    parameters whose 'module.name' is in kept_options are exempt."""
    out = []
    for line, name, callee, position, defaulted in public_options(tree):
        owner = name.rsplit(".", 1)[0]
        if callee in listed or f"{module}.{owner}" in kept or \
                f"{module}.{name}" in kept_options:
            continue
        param = name.rsplit(".", 1)[-1]
        values = set(passed_values(setters.get(callee, []), param, position))
        if values <= {None}:
            if defaulted:
                out.append(f"{line}: {name}")
        elif len(values) == 1 and values != {"?"}:
            out.append(f"{line}: {name} = {values.pop()}")
    return out


def local_imports(node: ast.AST, scope: str = "", in_function: bool = False):
    """'scope: module' for each module imported inside a function, scope
    being the dotted name of the innermost function (its class included)
    and module as written ('.decompose' for a relative import)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            name = f"{scope}.{child.name}" if scope else child.name
            yield from local_imports(
                child, name, in_function or not isinstance(child, ast.ClassDef))
        elif in_function and isinstance(child, ast.Import):
            yield from (f"{scope}: {alias.name}" for alias in child.names)
        elif in_function and isinstance(child, ast.ImportFrom):
            yield f"{scope}: {'.' * child.level}{child.module or ''}"
        else:
            yield from local_imports(child, scope, in_function)


def unlisted_local_imports(module: str, tree: ast.Module, listed) -> list[str]:
    """The local imports of tree (see local_imports) whose 'module.scope:
    imported module' is not in listed."""
    return [entry for entry in local_imports(tree)
            if f"{module}.{entry}" not in listed]


# imports made inside a function, each with why it is not at module level
LOCAL_IMPORTS = {
    "modules.iso_test: .decompose":
        "decompose imports modules, so modules cannot import decompose at "
        "load time",
    "decompose._rational_certificate: sympy":
        "sympy costs more to import than most QQ decompositions; it loads "
        "only where a commutative top of dimension > 1 is factored "
        "(tests/test_cli.py::test_rational_scenario_does_not_import_sympy)",
    "decompose._eigenvalues: sympy":
        "it loads only where a Frobenius-fixed element is shifted by its "
        "eigenvalues to split a non-local End over GF(p), which no suite "
        "reaches (tests/test_decompose.py::"
        "test_non_local_end_that_no_basis_element_splits)",
    "cli.execute: json":
        "only --json output reads it, so a process that prints no JSON "
        "does not load it (tests/test_cli.py::"
        "test_gf2_scenario_loads_no_dataclasses_inspect_or_json)",
}


def test_local_imports_are_found():
    src = ("import os\n"
           "def f():\n"
           "    from .decompose import decompose\n"
           "    return decompose, os\n"
           "class C:\n"
           "    import re\n"
           "    def m(self):\n"
           "        import json, itertools as it\n"
           "        def inner():\n"
           "            if json:\n"
           "                from fractions import Fraction\n"
           "                return Fraction\n"
           "        return inner, it\n")
    assert sorted(local_imports(ast.parse(src))) == [
        "C.m.inner: fractions", "C.m: itertools", "C.m: json",
        "f: .decompose"]


def test_unlisted_local_imports_are_flagged_and_listed_ones_are_not():
    # the two listed imports planted beside unlisted ones
    modules = ("def iso_test(m, n):\n"
               "    from .decompose import decompose\n"
               "    from .tube import normal_path_arrows\n"
               "    return decompose, normal_path_arrows\n")
    decompose = ("def _rational_certificate(mats, coords):\n"
                 "    from fractions import Fraction\n"
                 "    from sympy import Poly, Symbol\n"
                 "    return Fraction, Poly, Symbol\n")
    assert unlisted_local_imports("modules", ast.parse(modules),
                                  LOCAL_IMPORTS) == ["iso_test: .tube"]
    assert unlisted_local_imports("decompose", ast.parse(decompose),
                                  LOCAL_IMPORTS) == [
        "_rational_certificate: fractions"]
    # the same import in another function or module is not listed
    assert unlisted_local_imports("tower", ast.parse(modules),
                                  LOCAL_IMPORTS) == [
        "iso_test: .decompose", "iso_test: .tube"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_local_import_is_listed(path):
    assert unlisted_local_imports(path.stem, ast.parse(path.read_text()),
                                  LOCAL_IMPORTS) == []


def test_listed_local_imports_exist():
    # a listed import that moves to module level leaves LOCAL_IMPORTS
    found = {f"{p.stem}.{entry}" for p in SRC.glob("*.py")
             for entry in local_imports(ast.parse(p.read_text()))}
    assert set(LOCAL_IMPORTS) <= found


# public names with no caller outside tests/, each with why it stays
KEPT: dict[str, str] = {}

# defaulted public parameters that no caller outside tests/ sets, and
# public parameters that every caller sets to one literal value, each with
# why it stays
KEPT_OPTIONS = {
    "suites.radical_universes.field":
        "the radical suite's universes rebuilt over GF(3), where the "
        "radical is cross-checked off the GF(2) fast path",
    "suites.SuiteResult.summary.with_time":
        "perfbench/workloads.py passes with_time=False, and perfbench/ "
        "changes only with the benchmark (ROADMAP item 6)",
    "tube.mesh_sweep.max_len":
        "tests/test_tube.py checks the sweep's node weights word by word at "
        "length 6; the mesh suite sweeps at 8",
    "ppformula.PpFormula.n":
        "the library builds only its unary basic and corpus formulas from "
        "rows, and the parser builds from cells; tests/test_ppformula.py "
        "builds formulas of two free variables from rows",
}


STORAGE_NAMES = {"packed", "ints", "den", "_of_stored", "_of_ints",
                 "from_packed"}
# linalg owns matrix storage; the GF(2) oracles read packed rows on purpose
STORAGE_OWNERS = {"linalg.py", "oracles.py"}


def storage_reads(tree: ast.AST):
    """'line: name' for each read of a matrix's stored rows: the attribute
    or name packed, ints, den, _of_stored, _of_ints or from_packed."""
    for node in ast.walk(tree):
        name = node.attr if isinstance(node, ast.Attribute) else \
            node.id if isinstance(node, ast.Name) else None
        if name in STORAGE_NAMES:
            yield f"{node.lineno}: {name}"


def test_storage_reads_are_found():
    src = ("def f(m, Matrix):\n"
           "    a = m.packed\n"
           "    b = m.ints, m.den\n"
           "    c = Matrix.from_packed(m.field, 0, 0, ())\n"
           "    d = Matrix._of_stored(m.field, 0, 0, ())\n"
           "    e = Matrix._of_ints(m.field, 0, 0, (), 1)\n"
           "    return m.data, a, b, c, d, e\n")
    # sorted: ast.walk gives no order between two reads on one line
    assert sorted(storage_reads(ast.parse(src))) == [
        "2: packed", "3: den", "3: ints", "4: from_packed", "5: _of_stored",
        "6: _of_ints"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name not in STORAGE_OWNERS),
                         ids=lambda p: p.name)
def test_matrix_storage_stays_in_linalg(path):
    assert list(storage_reads(ast.parse(path.read_text()))) == []


FORMULA_STORAGE = ("cells", "l", "m")


def formula_writes(tree: ast.AST):
    """'line: name' for each use of _of, PpFormula's unchecked
    constructor, and each assignment or deletion of an attribute cells,
    l or m, by setattr too, of anything but self (a class's own attribute
    of that name is no formula's)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_of":
            yield f"{node.lineno}: _of"
        elif isinstance(node, ast.Attribute) and \
                node.attr in FORMULA_STORAGE and \
                isinstance(node.ctx, (ast.Store, ast.Del)) and \
                getattr(node.value, "id", None) != "self":
            yield f"{node.lineno}: {node.attr}"
        elif isinstance(node, ast.Call) and \
                getattr(node.func, "id", None) == "setattr" and \
                len(node.args) > 1 and \
                getattr(node.args[1], "value", None) in FORMULA_STORAGE:
            yield f"{node.lineno}: {node.args[1].value}"


def test_formula_writes_are_found():
    src = ("def f(phi, alg, PpFormula):\n"
           "    psi = PpFormula._of(alg, 1, 0, 0, {})\n"
           "    phi.cells = {}\n"
           "    phi.l, psi.m = 0, 0\n"
           "    setattr(phi, 'm', 1)\n"
           "    del phi.cells\n"
           "    make = PpFormula._of\n"
           "    return phi.cells, phi.l + psi.m, PpFormula.from_cells, make\n"
           "class C:\n"
           "    def __init__(self, m):\n"
           "        self.m = m\n")
    # sorted: ast.walk gives no order between two writes on one line
    assert sorted(formula_writes(ast.parse(src))) == [
        "2: _of", "3: cells", "4: l", "4: m", "5: m", "6: cells", "7: _of"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "ppformula.py"),
                         ids=lambda p: p.name)
def test_formula_storage_stays_in_ppformula(path):
    # so every formula built from outside input passes a checking
    # constructor, PpFormula(algebra, n, rows) or PpFormula.from_cells
    assert list(formula_writes(ast.parse(path.read_text()))) == []


def algebra_constructions(tree: ast.AST):
    """'line: FDAlgebra' for each call of FDAlgebra, by name or as an
    attribute; a mention that is not a call, such as a type, is none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else \
                f.attr if isinstance(f, ast.Attribute) else None
            if name == "FDAlgebra":
                yield f"{node.lineno}: FDAlgebra"


def test_algebra_constructions_are_found():
    src = ("def f(field, table, algebra, a: FDAlgebra) -> FDAlgebra:\n"
           "    b = FDAlgebra(field, ['1'], table, (1,))\n"
           "    c = algebra.FDAlgebra(field, ['1'], table, (1,))\n"
           "    return isinstance(a, FDAlgebra), b, c\n")
    assert list(algebra_constructions(ast.parse(src))) == [
        "2: FDAlgebra", "3: FDAlgebra"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "algebra.py"),
                         ids=lambda p: p.name)
def test_structure_constant_tables_stay_in_algebra(path):
    # every algebra is built by algebra.monomial_algebra (or is an
    # opposite), so no other module writes a structure-constant table
    assert list(algebra_constructions(ast.parse(path.read_text()))) == []


def attribute_reads(tree: ast.AST, names):
    """'line: name' for each attribute with one of the names, read or
    written; a name or a string is none."""
    nodes = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in names]
    return [f"{node.lineno}: {node.attr}"
            for node in sorted(nodes, key=lambda node: node.lineno)]


PRODUCT_NAMES = ("table", "products")


def test_table_reads_are_found():
    src = ("def f(alg, table, products):\n"
           "    t = alg.table[1][0], getattr(alg, 'table'), table\n"
           "    alg.op.table = t\n"
           "    k = alg.products[1][0], getattr(alg, 'products'), products\n"
           "    alg.op.products = k\n"
           "    return alg.paths\n")
    assert attribute_reads(ast.parse(src), PRODUCT_NAMES) == [
        "2: table", "3: table", "4: products", "5: products"]


@pytest.mark.parametrize("path", sorted(
    p for p in SRC.glob("*.py") if p.name != "algebra.py"),
    ids=lambda p: p.name)
def test_structure_constants_are_read_only_in_algebra_and_tower(path):
    # an algebra's product index is algebra.py's: other modules multiply
    # with mul_el and identify an algebra by its paths, and tower.py
    # certifies L_i's block of each one-point extension through mul_el
    assert attribute_reads(ast.parse(path.read_text()), PRODUCT_NAMES) == []


QUIVER_TABLES = ("_out", "_target", "_rhs", "_vertices", "_vertex_id",
                 "_arrows", "_arrow_id", "_walks")


def test_quiver_table_reads_are_found():
    src = ("def f(q, _rhs):\n"
           "    a = q._out[(0, 0, 1)], getattr(q, '_target'), _rhs\n"
           "    q._rhs[a] = q._target\n"
           "    return q.out_lam((0, 0, 1))\n")
    # sorted: ast.walk gives no order between two reads on one line
    assert sorted(attribute_reads(ast.parse(src), QUIVER_TABLES)) == [
        "2: _out", "3: _rhs", "3: _target"]


@pytest.mark.parametrize("path", sorted(
    p for p in SRC.glob("*.py") if p.name != "tube.py"),
    ids=lambda p: p.name)
def test_quiver_tables_are_read_only_in_tube(path):
    # a translation quiver's compiled tables (id maps, outgoing arrows,
    # targets, mesh rules, walks) are tube.py's: other modules use its
    # methods, the mesh sweep, normal_walk and normalize_path
    assert attribute_reads(ast.parse(path.read_text()), QUIVER_TABLES) == []


def int_typed_options(tree: ast.AST):
    """'line: option' for each add_argument call that passes type=int,
    which reads any Unicode digit (the Arabic-Indic three as 3)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "add_argument" and \
                any(k.arg == "type" and isinstance(k.value, ast.Name) and
                    k.value.id == "int" for k in node.keywords):
            yield f"{node.lineno}: {node.args[0].value}"


def test_int_typed_options_are_found():
    src = ("def build(p, _number):\n"
           "    p.add_argument('--seed', type=int, default=0)\n"
           "    p.add_argument('--N', type=_number)\n"
           "    p.add_argument('--n', default=int('3'))\n"
           "    p.add_argument('--k', required=True,\n"
           "                   type=int)\n")
    assert sorted(int_typed_options(ast.parse(src))) == ["2: --seed",
                                                         "5: --k"]


def test_no_option_is_read_by_int():
    # cli._number reads ASCII digits only
    assert list(int_typed_options(ast.parse((SRC / "cli.py").read_text()))) \
        == []


def test_unread_locals_are_found():
    src = "def f(a):\n    b, _ = a\n    c = 1\n    return b\n"
    assert list(unread_locals(ast.parse(src))) == ["f:3: c"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_local_is_assigned_but_never_read(path):
    assert list(unread_locals(ast.parse(path.read_text()))) == []


def test_unread_imports_are_found():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport re as regex\n"
           "from json import dumps, loads\n"
           "def f():\n    return loads(os.sep)\n")
    assert list(unread_imports(ast.parse(src))) == ["3: regex", "4: dumps"]


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_module_import_is_unread(path):
    assert list(unread_imports(ast.parse(path.read_text()))) == []


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_the_package_root_binds_each_submodule_to_its_module(path):
    # a package-level name equal to a submodule's would shadow it, and
    # `import ppmod.<stem> as m` would bind that name, not the module
    module = importlib.import_module(f"ppmod.{path.stem}")
    assert getattr(ppmod, path.stem) is module


@pytest.fixture(scope="module")
def src_names():
    names, attrs = references(ast.parse(p.read_text())
                              for p in SRC.glob("*.py"))
    return names | attrs


def test_unused_private_code_is_found():
    src = ("def _gone():\n    pass\n"
           "def _kept():\n    pass\n"
           "class _Dead:\n    pass\n"
           "class C:\n"
           "    def __init__(self):\n        self._used()\n"
           "    def _used(self):\n        return _kept()\n"
           "    def _orphan(self):\n        pass\n")
    tree = ast.parse(src)
    names, attrs = references([tree])
    assert unused_private(tree, names | attrs) == ["1: _gone", "5: _Dead",
                                                   "12: _orphan"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_private_code_is_unused(path, src_names):
    assert unused_private(ast.parse(path.read_text()), src_names) == []


class Callers(NamedTuple):
    """What the code outside tests/ reads and calls."""
    names: set[str]      # names read or imported (see references)
    attrs: set[str]      # attributes taken
    traced: set[str]     # the attributes perfbench traces
    setters: dict        # see option_setters
    listed: set[str]


@pytest.fixture(scope="module")
def public_callers() -> Callers:
    readers = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
               *(ROOT / "perfbench").glob("*.py")]
    trees = [ast.parse(p.read_text()) for p in readers]
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    targets = next(ast.literal_eval(stmt.value) for stmt in tracing.body
                   if isinstance(stmt, ast.Assign) and
                   [t.id for t in stmt.targets] == ["TARGETS"])
    return Callers(*references(trees), {attr for _, attr, _ in targets},
                   *option_setters(trees))


def test_uncalled_public_code_is_found():
    src = ("def gone():\n    pass\n"
           "def traced():\n    pass\n"
           "def kept():\n    pass\n"
           "class C:\n"
           "    def used(self):\n        return _helper()\n"
           "    def orphan(self):\n        pass\n"
           "    def key(self):\n        pass\n"
           "def _helper():\n    return C().used()\n"
           "def full():\n    pass\n"
           "def elsewhere(d, key=None):\n"
           "    key = len(d)\n    return key, d.full\n")
    tree = ast.parse(src)
    # C.key is only a local elsewhere, full only an unrelated attribute
    assert uncalled_public("m", tree, *references([tree]), {"traced"},
                           {"m.kept"}) == ["1: gone", "10: C.orphan",
                                           "12: C.key", "16: full",
                                           "18: elsewhere"]


def test_a_read_of_self_counts_only_for_its_class_and_bases():
    src = ("class A:\n"
           "    def f(self):\n        pass\n"
           "    def _g(self):\n        pass\n"
           "class B:\n"
           "    def f(self):\n        pass\n"
           "    def g(self):\n        return self.f(), self._g()\n"
           "    def _g(self):\n        pass\n"
           "class C(B):\n"
           "    def h(self):\n        return self.g()\n"
           "A, C().h()\n")
    tree = ast.parse(src)
    names, attrs = references([tree])
    # B reads f and _g on itself, C reads g on its base B; A's are unread
    assert uncalled_public("m", tree, names, attrs, set(), {}) == ["2: A.f"]
    assert unused_private(tree, names | attrs) == ["4: _g"]


def test_operator_methods_are_read_only_where_their_operator_is_used():
    src = ("class _V:\n"
           "    def __add__(self, o):\n        pass\n"
           "    def __sub__(self, o):\n        pass\n"
           "    def __mul__(self, o):\n        pass\n"
           "    def __neg__(self):\n        pass\n"
           "    def __repr__(self):\n        pass\n"
           "def _use(a, b):\n"
           "    a += b\n"
           "    return a * b, a.__sub__, -1\n")
    tree = ast.parse(src)
    # += reads __add__, an attribute __sub__; -1 is a literal, not a negation
    assert uncalled_public("m", tree, *references([tree]), set(), {}) == [
        "8: _V.__neg__"]
    negated = ast.parse(src + "def _neg(a):\n    return -a\n")
    assert uncalled_public("m", negated, *references([negated]), set(),
                           {}) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_public_name_has_a_caller(path, public_callers):
    c = public_callers
    assert uncalled_public(path.stem, ast.parse(path.read_text()), c.names,
                           c.attrs, c.traced, KEPT) == []


def test_unread_module_names_are_found():
    src = ("A = 1\n"
           "B, (C, [D]) = 2, (3, [4])\n"
           "E: int = 5\n"
           "F = {}\n"
           "F['k'] = A\n"
           "def f(m):\n    G = B\n    return G, m.D\n"
           "class K:\n    H = 1\n")
    tree = ast.parse(src)
    names, attrs = references([tree])
    # D is read as an attribute, as cli reads ziegler.CLOSURE_ASSUMPTION;
    # G is a local and H a class attribute, neither bound at module level
    assert [f"{line}: {name}" for line, name in module_names(tree)
            if name not in names | attrs] == ["2: C", "3: E"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_module_name_is_read(path, public_callers):
    # a constant or cache that nothing in src/, scripts/ or perfbench/
    # reads is dead
    read = public_callers.names | public_callers.attrs
    assert [f"{line}: {name}"
            for line, name in module_names(ast.parse(path.read_text()))
            if name not in read] == []


def test_kept_names_exist_and_have_no_other_caller(public_callers):
    c = public_callers
    for name in KEPT:
        module, qual = name.split(".", 1)
        tree = ast.parse((SRC / f"{module}.py").read_text())
        assert qual in {q for _, q in definitions(tree)}, name
        # a kept name that gains a caller leaves KEPT
        own = qual.rsplit(".", 1)[-1]
        assert own not in (c.attrs if "." in qual else c.names) and \
            qual not in c.attrs | c.traced, name


def test_unset_options_are_found():
    src = ("def by_keyword(a, kw=1):\n    pass\n"
           "def by_position(a, pos=1):\n    pass\n"
           "def by_star(a, st=1):\n    pass\n"
           "def by_starstar(a, *, ss=1):\n    pass\n"
           "def unset(a, never=1, *, nor=2):\n    pass\n"
           "def only_tested(a, tested=1):\n    pass\n"
           "def kept(a, why=1):\n    pass\n"
           "def tabled(seed=0):\n    pass\n"
           "class C:\n"
           "    def __init__(self, x=0):\n        pass\n"
           "    def m(self, y=0, z=0):\n        pass\n"
           "    @staticmethod\n"
           "    def s(w=0):\n        pass\n"
           "def _private(p=0):\n    pass\n")
    tree = ast.parse(src)
    callers = ast.parse(
        "TABLE = {'t': tabled}\n"
        "by_keyword(a, kw=k)\nby_position(a, p)\nby_star(*args)\n"
        "by_starstar(a, **opts)\nunset(a)\nC(x).m(y)\nC.s(w)\n")
    tests = ast.parse("only_tested(a, tested=t)\nC().m(z=1)\n")
    kept_options = {"m.kept.why"}
    assert unset_options("m", tree, *option_setters([tree, callers]), {},
                         kept_options) == [
        "9: unset.never", "9: unset.nor", "11: only_tested.tested",
        "20: C.m.z"]
    # counted as callers, the test calls would set the last two
    assert unset_options("m", tree, *option_setters([tree, callers, tests]),
                         {}, kept_options) == [
        "9: unset.never", "9: unset.nor"]


def test_one_value_options_are_found():
    src = ("def fixed(a, flag=True):\n    pass\n"
           "def negative(a, k=0):\n    pass\n"
           "def varied(a, n=1):\n    pass\n"
           "def defaulted(a, t=10):\n    pass\n"
           "def computed(a, size=0):\n    pass\n"
           "class C:\n"
           "    def m(self, *, on=False):\n        pass\n"
           "class Annotated:\n"
           "    def __init__(self, x, check=True):\n        pass\n")
    tree = ast.parse(src)
    callers = ast.parse(
        "fixed(0, flag=False)\nfixed(1, False)\n"
        "negative(0, k=-1)\nnegative(1, -1)\n"
        "varied(a, 2)\nvaried(a, n=3)\n"
        "defaulted(a, t=10)\ndefaulted(a)\n"
        "computed(a, size=len(a))\ncomputed(a, size=len(a))\n"
        "C().m(on=True)\n"
        "def pair(a) -> tuple[Annotated, C]:\n"
        "    kept: dict[str, Annotated] = {}\n"
        "    return Annotated(a, check=False), Annotated(kept, False)\n")
    # one literal everywhere is a constant; two literals, a literal and
    # the default, or an expression each make a real option; a class named
    # in an annotation's tuple is not called through a table
    assert unset_options("m", tree, *option_setters([tree, callers]), {},
                         {}) == ["1: fixed.flag = False",
                                 "3: negative.k = -1", "12: C.m.on = True",
                                 "15: Annotated.check = False"]


def test_one_value_parameters_without_default_are_found():
    src = ("def fixed(a, b):\n    pass\n"
           "def varied(a, b):\n    pass\n"
           "def keyword(a, *, k):\n    pass\n"
           "def unread(a):\n    pass\n"
           "class C:\n"
           "    def __init__(self, x):\n        pass\n"
           "    def m(self, i):\n        pass\n"
           "    @staticmethod\n"
           "    def s(w):\n        pass\n")
    tree = ast.parse(src)
    callers = ast.parse(
        "fixed(a, 0)\nfixed(b, b=0)\n"
        "varied(0, 1)\nvaried(1, b)\n"
        "keyword(a, k='x')\n"
        "C(2).m(0)\nC(3).m(0)\nC.s(w)\n")
    # a parameter with no default is never unset, but one literal in
    # every call makes it as much a constant as a default would
    assert unset_options("m", tree, *option_setters([tree, callers]), {},
                         {}) == ["1: fixed.b = 0", "5: keyword.k = 'x'",
                                 "12: C.m.i = 0"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_option_has_a_caller(path, public_callers):
    c = public_callers
    assert unset_options(path.stem, ast.parse(path.read_text()), c.setters,
                         c.listed, KEPT, KEPT_OPTIONS) == []


def test_kept_options_exist_and_have_no_other_caller(public_callers):
    c = public_callers
    for name in KEPT_OPTIONS:
        module, qual = name.split(".", 1)
        tree = ast.parse((SRC / f"{module}.py").read_text())
        unset = unset_options(module, tree, c.setters, c.listed, KEPT, {})
        # a kept option that is gone or gains a caller leaves KEPT_OPTIONS
        assert qual in {entry.split(": ", 1)[1].split(" = ")[0]
                        for entry in unset}, name
