"""Every name a module exports in ``__all__`` exists on it, and the package
root re-exports none of them: callers import each public name from its home
module, and the root holds only ``__version__``.
"""

import importlib
import pkgutil

import pytest

import hadperm

MODULES = sorted(
    name
    for _, name, _ in pkgutil.iter_modules(hadperm.__path__)
    if hasattr(importlib.import_module(f"hadperm.{name}"), "__all__")
)

PUBLIC = [
    (module, name)
    for module in MODULES
    for name in importlib.import_module(f"hadperm.{module}").__all__
]


def test_tables_are_nonempty():
    assert "submagic" in MODULES and "errors" in MODULES
    assert ("submagic", "ProjGrid") in PUBLIC


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(f"hadperm.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


@pytest.mark.parametrize("module, name", PUBLIC)
def test_not_reexported(module, name):
    assert name not in vars(hadperm)
