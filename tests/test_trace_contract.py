"""The names the benchmark's tracer wraps (``perfbench/spans.py``) exist in
hadperm, so a rename cannot silently drop a layer from the traced figures.

``spans.py`` is read as text, not imported: its ``TRACED`` and ``COUNTED``
tables are literal dicts of module name to function names.
"""

import ast
import importlib
from pathlib import Path

import pytest

from hadperm import torus

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _table(name: str) -> dict[str, tuple[str, ...]]:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {SPANS}")


NAMES = [
    (module, fn_name)
    for table in ("TRACED", "COUNTED")
    for module, names in _table(table).items()
    for fn_name in names
]


def test_tables_are_nonempty():
    assert ("torus", "from_complex") in NAMES
    assert ("pperm", "compose") in NAMES


@pytest.mark.parametrize("module, fn_name", NAMES)
def test_traced_name_exists(module, fn_name):
    if (module, fn_name) == ("torus", "from_complex"):
        # wrapped in place on the class, so it must be its own classmethod
        assert isinstance(torus.TorusMatrix.__dict__.get("from_complex"), classmethod)
        return
    assert callable(getattr(importlib.import_module(f"hadperm.{module}"), fn_name))
