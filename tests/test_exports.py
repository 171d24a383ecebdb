"""Every name a tusla module lists in ``__all__`` resolves, so that
``from tusla.<module> import *`` works after a deletion too, every name
a module imports is used there or exported, so that a deletion leaves no
import behind, and every private module-level name is read in the package,
so that a deletion leaves no helper behind."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tusla

# __main__ runs the CLI on import and exports nothing
MODULES = ["tusla"] + [
    f"tusla.{m.name}" for m in pkgutil.iter_modules(tusla.__path__) if m.name != "__main__"
]
SOURCES = sorted(Path(tusla.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def unused_imports(source: str) -> list[str]:
    """Names the source imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - exported)


def test_unused_imports_finds_a_dead_import():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import Callable, Optional\n"
        "__all__ = ['Optional']\n"
        "def f(x: int) -> None:\n"
        "    return os.getpid()\n"
    )
    assert unused_imports(source) == ["Callable", "osp"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used_or_exported(path):
    assert unused_imports(path.read_text()) == []


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private function, class or constant that a
    module (name -> source) defines at module level and no module reads: by
    name in its own module, imported from it (unused_imports checks that the
    importer reads it), or as an attribute of the module's name."""
    defined, read = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update((module, n.id) for t in targets for n in ast.walk(t)
                               if isinstance(n, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.module:
                read.update((node.module.rpartition(".")[2], a.name) for a in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                read.add((node.value.id, node.attr))
    return sorted(f"{m}.{n}" for m, n in defined - read
                  if n.startswith("_") and not n.endswith("__"))


def test_dead_private_names_finds_a_dead_helper():
    sources = {
        "a": (
            "__all__ = ['f']\n"
            "_LIMIT, _ATTR = 3, 4\n"
            "class _Kept: ...\n"
            "def _used(x): return x\n"
            "def _dead(): ...\n"
            "def f(): return _used(_LIMIT)\n"
        ),
        # b reads its own _dead, not a's, and a's _Kept and _ATTR from outside
        "b": (
            "from . import a\n"
            "from .a import _Kept\n"
            "def _dead(): return _Kept, a._ATTR\n"
            "x = _dead()\n"
        ),
    }
    assert dead_private_names(sources) == ["a._dead"]


def test_every_private_name_is_read_in_the_package():
    # reads in tests do not count: a helper only a test calls belongs in tests/
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert dead_private_names(sources) == []
