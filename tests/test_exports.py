"""Every name a tusla module lists in ``__all__`` resolves, so that
``from tusla.<module> import *`` works after a deletion too."""
import importlib
import pkgutil

import pytest

import tusla

# __main__ runs the CLI on import and exports nothing
MODULES = ["tusla"] + [
    f"tusla.{m.name}" for m in pkgutil.iter_modules(tusla.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
