"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "ppmod"


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


def private_definitions(tree: ast.Module):
    """(line, name) of each private ('_name', not dunder) module-level
    function or class and of each private method of a module-level
    class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    for stmt in tree.body:
        if isinstance(stmt, defs) and private(stmt.name):
            yield stmt.lineno, stmt.name
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, defs[:2]) and private(item.name):
                    yield item.lineno, item.name


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


STORAGE_NAMES = {"packed", "_stored", "_of_stored", "from_packed"}
# linalg owns matrix storage; the GF(2) oracles read packed rows on purpose
STORAGE_OWNERS = {"linalg.py", "oracles.py"}


def storage_reads(tree: ast.AST):
    """'line: name' for each read of a matrix's stored rows: the attribute
    or name packed, _stored, _of_stored or from_packed."""
    for node in ast.walk(tree):
        name = node.attr if isinstance(node, ast.Attribute) else \
            node.id if isinstance(node, ast.Name) else None
        if name in STORAGE_NAMES:
            yield f"{node.lineno}: {name}"


def test_storage_reads_are_found():
    src = ("def f(m, Matrix):\n"
           "    a = m.packed\n"
           "    b = m._stored()\n"
           "    c = Matrix.from_packed(m.field, 0, 0, ())\n"
           "    d = Matrix._of_stored(m.field, 0, 0, ())\n"
           "    return m.data, a, b, c, d\n")
    assert list(storage_reads(ast.parse(src))) == [
        "2: packed", "3: _stored", "4: from_packed", "5: _of_stored"]


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
