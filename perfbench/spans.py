"""Spans around hadperm's public functions, installed from outside the library.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds the wrapper
on its home module and on every hadperm module that imported the name, so
nested calls (``check_grid`` inside ``classical_points``, ``minor_det`` inside
``completion``) are seen.  ``uninstall`` puts the originals back.  Functions
in ``COUNTED`` run far too often for a span each and only count calls.

A span is kept in memory as (name, start, end, parent span index, op id) and
``write`` puts them out as JSON lines.  Self time is a span's duration minus
the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

from hadperm import torus

TRACED = {
    "torus": ("parse_phm", "format_phm", "from_complex", "is_partial_hadamard",
              "minor_det", "tensor", "fourier"),
    "submagic": ("grid_from_hadamard", "check_grid", "pre_latin_from_rank_one",
                 "classical_points", "complete_commuting", "complete_last"),
    "prelatin": ("parse_pls", "semigroup_of"),
    "pperm": ("generate_semigroup", "count_all", "enumerate_all"),
    "completion": ("modulus_profile", "gram_criterion", "weighted_criterion",
                   "complete_row"),
}
COUNTED = {"pperm": ("compose",)}
# functions returning a ProjGrid, whose dense size feeds submagic.grid_bytes
GRID_BUILDERS = ("submagic.grid_from_hadamard", "submagic.complete_last",
                 "submagic.complete_commuting")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter[str] = Counter()
        self.time_s: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.grid_bytes = 0
        self.semigroup_elements = 0
        self.op_id = -1
        self._stack: list[list] = []  # [span index, child time]
        self._restore: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _enter(self) -> tuple[int, int]:
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        self._stack.append([index, 0.0])
        return index, parent

    def _exit(self, name: str, index: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        _, child = self._stack.pop()
        duration = end - start
        self.spans[index] = (name, start, end, parent, self.op_id)
        self.calls[name] += 1
        self.time_s[name] += duration
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    def _after(self, name: str, result) -> None:
        if name in GRID_BUILDERS:
            self.grid_bytes += result.blocks.nbytes  # 16 M^2 N^2 for complex128
        elif name == "pperm.generate_semigroup":
            self.semigroup_elements += len(result)

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                index, parent = self._enter()
                start = time.perf_counter()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._exit(name, index, parent, start)
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, index, parent, start)
            self._after(name, result)
            return result
        return traced

    def count(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items()
                   if key == "hadperm" or key.startswith("hadperm.")]
        for module, names in TRACED.items():
            for fn_name in names:
                self._bind(modules, module, fn_name, self.wrap)
        for module, names in COUNTED.items():
            for fn_name in names:
                self._bind(modules, module, fn_name, self.count)

    def _bind(self, modules, module: str, fn_name: str, make) -> None:
        name = f"{module}.{fn_name}"
        if module == "torus" and fn_name == "from_complex":
            original = torus.TorusMatrix.__dict__["from_complex"]
            wrapped = classmethod(make(name, original.__func__))
            self._restore.append((torus.TorusMatrix, "from_complex", original))
            setattr(torus.TorusMatrix, "from_complex", wrapped)
            return
        original = getattr(sys.modules[f"hadperm.{module}"], fn_name)
        wrapped = make(name, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output --------------------------------------------------------------

    def metrics(self, passes: int, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures per pass over the input pool, plus ratios."""
        out: dict[str, tuple[float, str]] = {}
        for module, names in TRACED.items():
            for fn_name in names:
                name = f"{module}.{fn_name}"
                out[f"{name}.calls"] = (self.calls[name] / passes, "calls/pass")
                out[f"{name}.time_s"] = (self.time_s[name] / passes, "s/pass")
                out[f"{name}.self_s"] = (self.self_s[name] / passes, "s/pass")
        for module, names in COUNTED.items():
            for fn_name in names:
                name = f"{module}.{fn_name}"
                out[f"{name}.calls"] = (self.calls[name] / passes, "calls/pass")
        out["submagic.check_grid.per_op"] = (
            self.calls["submagic.check_grid"] / ops, "calls/op")
        out["torus.minor_det.per_op"] = (self.calls["torus.minor_det"] / ops, "calls/op")
        compose = self.calls["pperm.compose"]
        out["pperm.new_per_compose"] = (
            self.semigroup_elements / compose if compose else 0.0, "ratio")
        out["submagic.grid_bytes"] = (self.grid_bytes / passes, "B_computed/pass")
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")
