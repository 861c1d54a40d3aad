"""Every name a module exports in ``__all__`` exists on it, and every name
``hadperm/__init__.py`` re-exports is listed in its home module's ``__all__``,
so deleting a public name cannot leave a stale export behind.

``__init__.py`` is read as text: its ``from .module import ...`` statements
are the re-export list.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hadperm

MODULES = sorted(
    name
    for _, name, _ in pkgutil.iter_modules(hadperm.__path__)
    if hasattr(importlib.import_module(f"hadperm.{name}"), "__all__")
)

REEXPORTS = [
    (node.module, alias.name)
    for node in ast.parse(Path(hadperm.__file__).read_text(encoding="utf-8")).body
    if isinstance(node, ast.ImportFrom) and node.level == 1
    for alias in node.names
]


def test_tables_are_nonempty():
    assert "submagic" in MODULES and "errors" in MODULES
    assert ("submagic", "ProjGrid") in REEXPORTS


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(f"hadperm.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


@pytest.mark.parametrize("module, name", REEXPORTS)
def test_reexport_is_in_all(module, name):
    assert name in importlib.import_module(f"hadperm.{module}").__all__
