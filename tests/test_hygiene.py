"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "ppmod"


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
    definitions), a method by its own name."""
    for line, name in definitions(tree):
        name = name.rsplit(".", 1)[-1]
        if name.startswith("_") and not name.endswith("__"):
            yield line, name


def referenced_names(trees) -> set[str]:
    """Every name read, and every attribute taken, in the given trees."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) or
            (isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                           ast.Store))}


def unused_private(tree: ast.Module, used: set[str]) -> list[str]:
    """'line: name' for each private definition of tree whose name is not
    in used (see referenced_names)."""
    return [f"{line}: {name}" for line, name in private_definitions(tree)
            if name not in used]


def uncalled_public(module: str, tree: ast.Module, used: set[str],
                    traced: set[str], kept) -> list[str]:
    """'line: name' for each public definition of tree (see definitions)
    whose own name is not in used (see referenced_names), whose name is
    not in traced and whose 'module.name' is not in kept."""
    out = []
    for line, name in definitions(tree):
        own = name.rsplit(".", 1)[-1]
        if not (own.startswith("_") or own in used or name in traced
                or f"{module}.{name}" in kept):
            out.append(f"{line}: {name}")
    return out


# public names with no caller outside tests/, each with why it stays
KEPT = {
    "oracles.brute_eval": "the reference oracle for pp evaluation",
    "oracles.end_local_by_enumeration":
        "the reference oracle for the local-End certificate",
    "realize.RealizedTube.realize_normal_path":
        "the mesh-realization check the coray inverse limit builds on",
    "tube.SymbolicTube.alpha_matrix":
        "the symbolic ladder squares at depth >= 1",
    "tower.redundancy_table":
        "certifies that canonical labels are pairwise non-isomorphic",
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


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_module_import_is_unread(path):
    # __init__.py is exempt: its imports are the package's exports
    assert list(unread_imports(ast.parse(path.read_text()))) == []


@pytest.fixture(scope="module")
def src_names():
    return referenced_names(ast.parse(p.read_text()) for p in SRC.glob("*.py"))


def test_unused_private_code_is_found():
    src = ("def _gone():\n    pass\n"
           "def _kept():\n    pass\n"
           "class _Dead:\n    pass\n"
           "class C:\n"
           "    def __init__(self):\n        self._used()\n"
           "    def _used(self):\n        return _kept()\n"
           "    def _orphan(self):\n        pass\n")
    tree = ast.parse(src)
    assert unused_private(tree, referenced_names([tree])) == ["1: _gone", "5: _Dead",
                                            "12: _orphan"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_private_code_is_unused(path, src_names):
    assert unused_private(ast.parse(path.read_text()), src_names) == []


@pytest.fixture(scope="module")
def public_callers():
    """(names read outside tests/, the attributes perfbench traces)."""
    readers = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    readers += [*(ROOT / "scripts").glob("*.py"),
                *(ROOT / "perfbench").glob("*.py")]
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    targets = next(ast.literal_eval(stmt.value) for stmt in tracing.body
                   if isinstance(stmt, ast.Assign) and
                   [t.id for t in stmt.targets] == ["TARGETS"])
    return (referenced_names(ast.parse(p.read_text()) for p in readers),
            {attr for _, attr, _ in targets})


def test_uncalled_public_code_is_found():
    src = ("def gone():\n    pass\n"
           "def traced():\n    pass\n"
           "def kept():\n    pass\n"
           "class C:\n"
           "    def used(self):\n        return _helper()\n"
           "    def orphan(self):\n        pass\n"
           "def _helper():\n    return C().used()\n")
    tree = ast.parse(src)
    assert uncalled_public("m", tree, referenced_names([tree]), {"traced"},
                           {"m.kept"}) == ["1: gone", "10: C.orphan"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_public_name_has_a_caller(path, public_callers):
    used, traced = public_callers
    assert uncalled_public(path.stem, ast.parse(path.read_text()), used,
                           traced, KEPT) == []


def test_kept_names_exist_and_have_no_other_caller(public_callers):
    used, traced = public_callers
    for name in KEPT:
        module, qual = name.split(".", 1)
        tree = ast.parse((SRC / f"{module}.py").read_text())
        assert qual in {q for _, q in definitions(tree)}, name
        # a kept name that gains a caller leaves KEPT
        assert qual.rsplit(".", 1)[-1] not in used and qual not in traced, \
            name
