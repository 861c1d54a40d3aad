"""Command-line front end.

Subcommands: check, grid, complete-row, complete-grid, criteria, semigroup,
count, enumerate, fourier, tensor, verify.  Exit codes: 0 success / criterion
holds; 1 criterion fails or not completable (:class:`CriterionFailure`);
2 parse or usage error, or a request past a size limit (:class:`UsageError`,
``ValueError``, ``OSError``); 3 numerical failure (:class:`NumericalFailure`,
``LinAlgError``, ``ArithmeticError``).  Errors print one ``error:`` line to
stderr.  Reports are plain ``key: value`` lines, or one JSON object with
``--json``; identical arguments produce byte-identical output.  Each
command runs on one thread of the OpenBLAS that numpy bundles, so that
output does not depend on the BLAS thread count either.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import acceptance, completion, pperm, prelatin, submagic, torus
from ._linalg import DEFAULT_TOL
from .errors import CriterionFailure, NumericalFailure, UsageError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# caught first: LinAlgError (an SVD that does not converge) is a ValueError
_NUMERIC_ERRORS = (NumericalFailure, np.linalg.LinAlgError, ArithmeticError)
# OSError: an input path that is missing, a directory or unreadable
_USAGE_ERRORS = (UsageError, ValueError, OSError)


def _emit(args, report: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(report))
    else:
        for line in text_lines:
            print(line)


def _emit_document(args, key: str, text: str) -> None:
    _emit(args, {key: text}, [text.rstrip("\n")])


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _cmd_check(args) -> int:
    h = torus.read_phm(args.input)
    report = torus.is_partial_hadamard(h, args.tol)
    pair = list(report.worst_pair) if report.worst_pair else None
    _emit(
        args,
        {
            "ok": report.ok,
            "rows": h.rows,
            "cols": h.cols,
            "worst_pair": pair,
            "worst_value": report.worst_value,
            "worst_entry": list(report.worst_entry),
            "worst_modulus_error": report.worst_modulus_error,
        },
        [
            f"partial_hadamard: {_flag(report.ok)}",
            f"worst_pair: {pair}",
            f"worst_value: {report.worst_value!r}",
            f"worst_modulus_error: {report.worst_modulus_error!r}",
        ],
    )
    return EXIT_OK if report.ok else EXIT_FAIL


def _cmd_grid(args) -> int:
    h = torus.read_phm(args.input)
    # refuse a grid too large to certify before building it
    submagic._require_pair_scan_fits(h.rows, h.cols)
    grid = submagic.grid_from_hadamard(h, tol=args.tol)
    report = submagic.check_grid(grid, args.tol)
    payload = {
        "size": grid.size,
        "dim": grid.dim,
        "submagic": report.submagic,
        "magic": report.magic,
        "commuting": report.commuting,
        "worst_violations": report.worst_violations,
    }
    lines = [
        f"size: {grid.size}",
        f"dim: {grid.dim}",
        f"submagic: {_flag(report.submagic)}",
        f"magic: {_flag(report.magic)}",
        f"commuting: {_flag(report.commuting)}",
    ]
    lines.extend(
        f"violation[{key}]: {value!r}"
        for key, value in report.worst_violations.items()
    )
    if report.commuting:
        square = submagic.pre_latin_from_rank_one(grid, grid.dim, tol=args.tol)
        group = prelatin.semigroup_of(square)
        payload["pre_latin"] = [list(row) for row in square.entries]
        payload["semigroup_order"] = len(group)
        payload["semigroup"] = [pperm.format_pperm(e) for e in group]
        lines.append("pre_latin:")
        lines.extend("  " + " ".join(str(v) for v in row) for row in square.entries)
        lines.append(f"semigroup_order: {len(group)}")
        lines.extend(f"element: {pperm.format_pperm(e)}" for e in group)
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_complete_row(args) -> int:
    completed = completion.complete_row(torus.read_phm(args.input), tol=args.tol)
    _emit_document(args, "completed", torus.format_phm(completed))
    return EXIT_OK


def _cmd_complete_grid(args) -> int:
    # the grid of a .phm file is submagic by construction; a .pgrid file is
    # certified before complete_last and complete_commuting, which trust
    # their input, while complete_2x2_to_4x4 certifies its own
    pgrid = args.input.endswith(".pgrid")
    if pgrid:
        grid = submagic.read_pgrid(args.input)
    else:
        grid = submagic.grid_from_hadamard(torus.read_phm(args.input), tol=args.tol)
    target = args.target if args.target is not None else grid.size + 1
    if grid.size == 2 and target == 4:
        full = submagic.complete_2x2_to_4x4(grid, tol=args.tol)
    else:
        if pgrid:
            submagic._require_submagic(grid, args.tol)
        if target == grid.size + 1:
            full = submagic.complete_last(grid, tol=args.tol)
        else:
            full = submagic.complete_commuting(grid, target, tol=args.tol)
    _emit_document(args, "completed", submagic.format_pgrid(full))
    return EXIT_OK


def _cmd_criteria(args) -> int:
    report = completion.criteria(torus.read_phm(args.input), args.tol)
    profile, weighted = report.profile, report.weighted
    votes = report.votes.values()
    agree = len(set(votes)) == 1
    payload = {
        "moduli": list(profile.moduli),
        "modulus_constant": profile.constant,
        "modulus_hadamard_value": profile.hadamard_value,
        "gram_criterion": report.gram,
        "weighted_criterion": weighted.passes,
        # JSON has no infinity: c overflows from N = 144
        "weighted_c": weighted.c if math.isfinite(weighted.c) else None,
        "complete_last": report.border,
        "agree": agree,
    }
    lines = [
        f"moduli: {[repr(v) for v in profile.moduli]}",
        f"modulus_constant: {_flag(profile.constant)}",
        f"modulus_hadamard_value: {_flag(profile.hadamard_value)}",
        f"gram_criterion: {_flag(report.gram)}",
        f"weighted_criterion: {_flag(weighted.passes)}",
        f"weighted_c: {weighted.c!r}",
        f"complete_last: {_flag(report.border)}",
        f"agree: {_flag(agree)}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK if all(votes) else EXIT_FAIL


def _cmd_semigroup(args) -> int:
    square = prelatin.read_pls(args.input)
    group = prelatin.semigroup_of(square)
    # the header line, then one formatted element per line
    lines = pperm.format_semigroup(group).splitlines()
    is_group = group.is_group()
    _emit(
        args,
        {
            "size": group.size,
            "order": len(group),
            "is_group": is_group,
            "elements": lines[1:],
        },
        [*lines, f"# is_group: {_flag(is_group)}"],
    )
    return EXIT_OK


def _cmd_count(args) -> int:
    value = pperm.count_all(args.n)
    # Python 3.11+ converts no int past 4300 digits (count 1548 and up) to
    # text unless the cap is lifted; lift it for this one report only.
    capped = hasattr(sys, "set_int_max_str_digits")  # no cap before 3.11
    if capped:
        cap = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        _emit(args, {"n": args.n, "count": value}, [str(value)])
    finally:
        if capped:
            sys.set_int_max_str_digits(cap)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    elements = [
        pperm.format_pperm(sigma)
        for sigma in pperm.enumerate_all(args.n, limit=args.limit)
    ]
    _emit(args, {"n": args.n, "elements": elements}, elements)
    return EXIT_OK


def _cmd_fourier(args) -> int:
    _emit_document(args, "phm", torus.format_phm(torus.fourier(args.orders)))
    return EXIT_OK


def _cmd_tensor(args) -> int:
    h = torus.read_phm(args.left)
    k = torus.read_phm(args.right)
    _emit_document(args, "phm", torus.format_phm(torus.tensor(h, k)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = acceptance.run_all(seed=args.seed)
    payload = [
        {
            "criterion": r.number,
            "name": r.name,
            "passed": r.passed,
            "detail": r.detail,
        }
        for r in results
    ]
    lines = [
        f"criterion {r.number} [{r.name}]: {'PASS' if r.passed else 'FAIL'} - {r.detail}"
        for r in results
    ]
    _emit(args, {"results": payload}, lines)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


def _tolerance(text: str) -> float:
    # NaN, a negative or an infinite tol would pass or fail every check alike
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hadperm",
        description=(
            "Partial Hadamard matrices, submagic projector grids, and "
            "partial-permutation semigroups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    arguments = {
        "input": {},
        "left": {},
        "right": {},
        "n": {"type": int},
        "orders": {"type": int, "nargs": "+"},
        "--target": {"type": int, "default": None, "help": "target grid size"},
        "--limit": {"type": int, "default": pperm.DEFAULT_ENUM_LIMIT,
                    "help": "enumeration size cap"},
        "--seed": {"type": int, "default": 0,
                   "help": "seed of the random instances of criteria 5, 6 and 9"},
        "--tol": {"type": _tolerance, "default": DEFAULT_TOL,
                  "help": "numerical tolerance, a finite number >= 0"},
        "--json": {"action": "store_true", "help": "emit one JSON object"},
    }
    # name, handler, help, and the arguments it reads: positionals, then its
    # own flags; --json is on every subcommand
    commands = [
        ("check", _cmd_check, "certify a .phm file as partial Hadamard",
         ["input", "--tol"]),
        ("grid", _cmd_grid,
         "build the projection grid of a .phm file and report its properties "
         "(plus pre-Latin square and semigroup when commuting)",
         ["input", "--tol"]),
        ("complete-row", _cmd_complete_row,
         "complete an (N-1) x N .phm file to N x N", ["input", "--tol"]),
        ("complete-grid", _cmd_complete_grid,
         "complete a grid (.pgrid, or the grid of a .phm file); default target "
         "M+1 uses the border completion, M=2 to 4 the unconditional "
         "construction, anything else the commuting completion",
         ["input", "--target", "--tol"]),
        ("criteria", _cmd_criteria,
         "run all completion criteria for an (N-1) x N .phm file", ["input", "--tol"]),
        ("semigroup", _cmd_semigroup, "semigroup of a .pls pre-Latin square", ["input"]),
        ("count", _cmd_count, "number of partial permutations of {1..N}", ["n"]),
        ("enumerate", _cmd_enumerate, "list all partial permutations of {1..N}",
         ["n", "--limit"]),
        ("fourier", _cmd_fourier, "print the Fourier matrix F_n1 (x) ... (x) F_nk",
         ["orders"]),
        ("tensor", _cmd_tensor, "tensor product of two .phm files", ["left", "right"]),
        ("verify", _cmd_verify, "run the acceptance criteria suite", ["--seed"]),
    ]
    for name, func, text, reads in commands:
        p = sub.add_parser(name, help=text)
        for arg in [*reads, "--json"]:
            p.add_argument(arg, **arguments[arg])
        p.set_defaults(func=func)
    return parser


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    bundles, or None for another BLAS build; looked up on the first call."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Run the block on one BLAS thread and restore the count after it, so
    that LAPACK results (from N = 128, the minors' last bits) do not depend
    on the count the process was started with.

    The setting is process-wide and the block keeps no count of open
    blocks: it is meant for one command at a time.  Where numpy's bundled
    OpenBLAS is not found, the block runs unchanged.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    saved = get()
    set_(1)
    try:
        yield
    finally:
        set_(saved)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every numerical check fails on NaN or inf, so numpy's warnings
        # would only add lines ahead of the one error report
        with np.errstate(all="ignore"), _one_blas_thread():
            return args.func(args)
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CriterionFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
