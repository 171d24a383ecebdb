"""Every name a tusla module lists in ``__all__`` resolves, so that
``from tusla.<module> import *`` works after a deletion too, and every name
a module imports is used there or exported, so that a deletion leaves no
import behind."""
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
