"""One verdict rule: every comparison of a defect with a tolerance in
``torus``, ``submagic`` and ``completion`` goes through ``_linalg.within``,
so a NaN defect fails it.

``test_nan_defect_fails`` feeds a NaN defect to each verdict, through a
crafted input or by replacing the function whose value the verdict reads.
``test_no_bare_tolerance_comparison`` is a static guard: it parses the three
modules and fails on a comparison that names a tolerance outside ``within``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import hadperm
from _helpers import take_rows
from hadperm import completion, submagic, torus
from hadperm._linalg import within
from hadperm.errors import (
    DegenerateSplit,
    IllConditioned,
    NotCommuting,
    NotCompletable,
    RankError,
)
from hadperm.torus import TorusMatrix, fourier

NAN = float("nan")
MODULES = ("torus", "submagic", "completion")
SRC = Path(hadperm.__file__).resolve().parent


class TestWithin:
    def test_equality_passes(self):
        assert within(1e-9, 1e-9) is True

    @pytest.mark.parametrize(
        "defect, bound",
        [(NAN, 1.0), (1.0, NAN), (np.inf, 1e300), (np.float64(NAN), 1.0)],
        ids=["nan-defect", "nan-bound", "inf-defect", "numpy-nan-defect"],
    )
    def test_non_finite_fails(self, defect, bound):
        assert within(defect, bound) is False

    def test_numpy_scalars_give_a_bool(self):
        assert within(np.float64(0.5), np.float64(1.0)) is True

    def test_arrays_are_elementwise(self):
        ok = within(np.array([0.0, 1.0, 2.0, NAN, np.inf]), 1.0)
        assert ok.dtype == bool
        assert ok.tolist() == [True, True, False, False, False]


# --------------------------------------------------------------------------
# NaN defects, one case per verdict


def _grid():
    return submagic.grid_from_hadamard(fourier([2]))


def _deleted_row():
    return take_rows(fourier([4]), 3)


CASES = {}


def site(name):
    def register(case):
        CASES[name] = case
        return case

    return register


@site("torus._check_unit")
def _(monkeypatch):
    with pytest.raises(ValueError, match="not unit modulus"):
        TorusMatrix.from_complex([[1.0, NAN]])


@site("torus.is_partial_hadamard:modulus")
def _(monkeypatch):
    zeros = np.zeros((1, 2), dtype=object)
    h = torus._trusted(np.array([[NAN, 1.0]], dtype=complex), zeros, zeros)
    assert torus.is_partial_hadamard(h).ok is False


@site("torus.is_partial_hadamard:pair")
def _(monkeypatch):
    fill = np.fill_diagonal

    def nan_gram(gram, value):
        gram[...] = NAN
        fill(gram, value)

    monkeypatch.setattr(np, "fill_diagonal", nan_gram)
    report = torus.is_partial_hadamard(fourier([2]))
    assert np.isnan(report.worst_value)
    assert report.ok is False


@site("torus._conditioned_columns")
def _(monkeypatch):
    a = _deleted_row().to_complex()
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: np.array([10.0, 10.0, NAN]))
    assert not torus._conditioned_columns(a).any()


def _minor_error_nan(monkeypatch):
    a = take_rows(fourier([3]), 2).to_complex()
    monkeypatch.setattr(np.linalg, "svd", lambda s, compute_uv: np.array([[NAN, 1.0]]))
    return lambda: torus._minor_batch(a, np.array([0]), np.array([False]))


@site("torus._minor_batch:failing")
def _(monkeypatch):
    with pytest.raises(IllConditioned):
        _minor_error_nan(monkeypatch)()


@site("torus._minor_batch:message")
def _(monkeypatch):
    with pytest.raises(IllConditioned, match="estimated relative error nan exceeds"):
        _minor_error_nan(monkeypatch)()


@site("submagic.check_grid:submagic")
def _(monkeypatch):
    monkeypatch.setattr(submagic, "_pair_defects", lambda flat, m: (0.0, NAN, 0.0))
    assert submagic.check_grid(_grid()).submagic is False


@site("submagic.check_grid:magic")
def _(monkeypatch):
    defects = iter([0.0, 0.0, 0.0, NAN])  # projection, hermitian, row, column sums
    monkeypatch.setattr(submagic, "_max_spectral_of", lambda mats: next(defects))
    report = submagic.check_grid(_grid())
    assert report.submagic is True
    assert report.magic is False


@site("submagic.check_grid:commuting")
def _(monkeypatch):
    monkeypatch.setattr(submagic, "_pair_defects", lambda flat, m: (0.0, 0.0, NAN))
    assert submagic.check_grid(_grid()).commuting is False


@site("submagic.pre_latin_from_rank_one:top")
def _(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.tile([0.0, NAN], (len(a), 1)))
    with pytest.raises(RankError, match="top eigenvalue nan"):
        submagic.pre_latin_from_rank_one(_grid(), 2)


@site("submagic.pre_latin_from_rank_one:rest")
def _(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.tile([NAN, 1.0], (len(a), 1)))
    with pytest.raises(RankError, match="remaining bound nan"):
        submagic.pre_latin_from_rank_one(_grid(), 2)


@site("submagic._require_commuting")
def _(monkeypatch):
    monkeypatch.setattr(submagic, "_pair_defects", lambda flat, m: (0.0, 0.0, NAN))
    with pytest.raises(NotCommuting, match="largest commutator nan"):
        submagic._require_commuting(_grid().blocks.reshape(4, 2, 2), 2, 1e-9)


@site("submagic._classify_columns:residual")
def _(monkeypatch):
    ops = _grid().blocks.reshape(4, 2, 2)
    with pytest.raises(DegenerateSplit, match="eigenvector residual nan"):
        submagic._classify_columns(ops, np.full((2, 2), NAN, dtype=complex), 2, 1e-5, 1e-9)


@site("submagic._classify_columns:eigenvalues")
def _(monkeypatch):
    # residual norms of zero let the NaN eigenvalues reach the 0/1 test
    def zero_norms(x, axis=None):
        return np.zeros(np.delete(x.shape, axis))

    monkeypatch.setattr(np.linalg, "norm", zero_norms)
    ops = _grid().blocks.reshape(4, 2, 2)
    with pytest.raises(DegenerateSplit, match="not 0/1"):
        submagic._classify_columns(ops, np.full((2, 2), NAN, dtype=complex), 2, 1e-5, 1e-9)


@site("submagic._classify_columns:bound")
def _(monkeypatch):
    grid = _grid()
    ops = grid.blocks.reshape(4, 2, 2)
    vectors, _ = submagic._joint_eigensystem(grid, 1e-9)
    scans = []
    monkeypatch.setattr(submagic, "_require_commuting", lambda *args: scans.append(args))
    # the norms of the 2-D residuals, which set the bound, are NaN
    norm = np.linalg.norm
    monkeypatch.setattr(
        np.linalg,
        "norm",
        lambda x, axis=None: np.full(len(x), NAN) if x.ndim == 2 else norm(x, axis=axis),
    )
    submagic._classify_columns(ops, vectors, 2, 1e-5, 1e-9)
    assert len(scans) == 1  # a NaN commutator bound runs the exact scan


@site("submagic.complete_last")
def _(monkeypatch):
    monkeypatch.setattr(submagic, "spectral_norm", lambda a: NAN)
    with pytest.raises(NotCompletable, match=r"\|\|P\^2 - P\|\| = nan"):
        submagic.complete_last(_grid())


@site("submagic.sum_bound_check")
def _(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.array([NAN, 1.0]))
    assert submagic.sum_bound_check(_grid(), 2).passes is False


@site("completion._kernel")
def _(monkeypatch):
    monkeypatch.setattr(completion, "_minors", lambda h: np.full(h.cols, NAN, dtype=complex))
    with pytest.raises(IllConditioned, match="residual nan"):
        completion.kernel_vector(_deleted_row())


def _one_nan_minor(monkeypatch):
    h = _deleted_row()
    minors = completion._minors(h).copy()
    minors[1] = NAN
    monkeypatch.setattr(completion, "_minors", lambda h: minors)
    return completion.modulus_profile(h)


@site("completion.modulus_profile:constant")
def _(monkeypatch):
    assert _one_nan_minor(monkeypatch).constant is False


@site("completion.modulus_profile:hadamard_value")
def _(monkeypatch):
    assert _one_nan_minor(monkeypatch).hadamard_value is False


@site("completion.gram_criterion")
def _(monkeypatch):
    monkeypatch.setattr(completion, "spectral_norm", lambda a: NAN)
    assert completion.gram_criterion(_deleted_row()) is False


@site("completion.weighted_criterion")
def _(monkeypatch):
    monkeypatch.setattr(completion, "spectral_norm", lambda a: NAN)
    assert completion.weighted_criterion(_deleted_row()).passes is False


@site("completion.criteria:border")
def _(monkeypatch):
    monkeypatch.setattr(completion, "spectral_norm", lambda a: NAN)
    assert completion.criteria(_deleted_row()).border is False


@pytest.mark.parametrize("name", list(CASES))
def test_nan_defect_fails(name, monkeypatch):
    with np.errstate(all="ignore"):
        CASES[name](monkeypatch)


# --------------------------------------------------------------------------
# static guard


def _is_tolerance(name: str) -> bool:
    return name in ("tol", "allowance") or name.endswith(("_tol", "_TOL"))


def _is_within(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "within"
    )


def bare_tolerance_comparisons(source: str) -> list[int]:
    """Lines of the comparisons in ``source`` that name a tolerance outside
    a ``within(...)`` call."""
    found = []

    def visit(node, inside):
        inside = inside or _is_within(node)
        if isinstance(node, ast.Compare) and not inside:
            names = [
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))
            ]
            if any(map(_is_tolerance, names)):
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return found


def _source(module: str) -> str:
    return (SRC / f"{module}.py").read_text(encoding="utf-8")


def test_guard_flags_bare_comparisons():
    source = (
        "a = x <= tol\n"
        "b = err > cls_tol or y < 1\n"
        "c = within(x, tol)\n"
        "d = ~within(e, rel_tol) | (lo > 0)\n"
        "e = r <= torus.CONSTRUCTION_TOL\n"
        "f = not residual <= allowance\n"
    )
    assert bare_tolerance_comparisons(source) == [1, 2, 5, 6]


@pytest.mark.parametrize("module", MODULES)
def test_no_bare_tolerance_comparison(module):
    assert bare_tolerance_comparisons(_source(module)) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_verdict_has_a_nan_case(module):
    calls = sum(map(_is_within, ast.walk(ast.parse(_source(module)))))
    assert calls == sum(name.startswith(f"{module}.") for name in CASES)
