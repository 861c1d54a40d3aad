"""Command-line front end.

Subcommands: check, grid, complete-row, complete-grid, criteria, semigroup,
count, enumerate, fourier, tensor, verify.  Exit codes: 0 success / criterion
holds; 1 criterion fails or not completable (:class:`CriterionFailure`);
2 parse or usage error, or a request past a size limit (:class:`UsageError`,
``ValueError``, ``OSError``); 3 numerical failure (:class:`NumericalFailure`,
``LinAlgError``, ``ArithmeticError``).  Errors print one ``error:`` line to
stderr.  Reports are plain ``key: value`` lines, or one JSON object with
``--json``; identical arguments produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

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


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _load_grid(path: str, tol: float) -> submagic.ProjGrid:
    """The grid of a .phm file (submagic by construction), or a .pgrid file
    certified submagic at ``tol``, since ``complete_last`` trusts its input."""
    if path.endswith(".pgrid"):
        grid = submagic.read_pgrid(path)
        submagic._require_submagic(grid, tol)
        return grid
    return submagic.grid_from_hadamard(torus.read_phm(path), tol=tol)


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
    h = torus.read_phm(args.input)
    completed = completion.complete_row(h, tol=args.tol)
    text = torus.format_phm(completed)
    _emit(args, {"completed": text}, [text.rstrip("\n")])
    return EXIT_OK


def _cmd_complete_grid(args) -> int:
    grid = _load_grid(args.input, args.tol)
    target = args.target if args.target is not None else grid.size + 1
    if target == grid.size + 1:
        full = submagic.complete_last(grid, tol=args.tol)
    elif grid.size == 2 and target == 4:
        full = submagic.complete_2x2_to_4x4(grid, tol=args.tol)
    else:
        full = submagic.complete_commuting(grid, target, tol=args.tol)
    text = submagic.format_pgrid(full)
    _emit(args, {"completed": text}, [text.rstrip("\n")])
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
    h = torus.fourier(args.orders)
    text = torus.format_phm(h)
    _emit(args, {"phm": text}, [text.rstrip("\n")])
    return EXIT_OK


def _cmd_tensor(args) -> int:
    h = torus.read_phm(args.left)
    k = torus.read_phm(args.right)
    text = torus.format_phm(torus.tensor(h, k))
    _emit(args, {"phm": text}, [text.rstrip("\n")])
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

    # Each subcommand takes only the flags it reads; --json is on all of them.
    def common(p, *, tol=False):
        if tol:
            p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                           help="numerical tolerance, a finite number >= 0")
        p.add_argument("--json", action="store_true", help="emit one JSON object")

    p = sub.add_parser("check", help="certify a .phm file as partial Hadamard")
    p.add_argument("input")
    common(p, tol=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "grid",
        help="build the projection grid of a .phm file and report its "
        "properties (plus pre-Latin square and semigroup when commuting)",
    )
    p.add_argument("input")
    common(p, tol=True)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("complete-row", help="complete an (N-1) x N .phm file to N x N")
    p.add_argument("input")
    common(p, tol=True)
    p.set_defaults(func=_cmd_complete_row)

    p = sub.add_parser(
        "complete-grid",
        help="complete a grid (.pgrid, or the grid of a .phm file); default "
        "target M+1 uses the border completion, M=2 to 4 the unconditional "
        "construction, anything else the commuting completion",
    )
    p.add_argument("input")
    p.add_argument("--target", type=int, default=None, help="target grid size")
    common(p, tol=True)
    p.set_defaults(func=_cmd_complete_grid)

    p = sub.add_parser(
        "criteria", help="run all completion criteria for an (N-1) x N .phm file"
    )
    p.add_argument("input")
    common(p, tol=True)
    p.set_defaults(func=_cmd_criteria)

    p = sub.add_parser("semigroup", help="semigroup of a .pls pre-Latin square")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=_cmd_semigroup)

    p = sub.add_parser("count", help="number of partial permutations of {1..N}")
    p.add_argument("n", type=int)
    common(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="list all partial permutations of {1..N}")
    p.add_argument("n", type=int)
    p.add_argument("--limit", type=int, default=pperm.DEFAULT_ENUM_LIMIT,
                   help="enumeration size cap")
    common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("fourier", help="print the Fourier matrix F_n1 (x) ... (x) F_nk")
    p.add_argument("orders", type=int, nargs="+")
    common(p)
    p.set_defaults(func=_cmd_fourier)

    p = sub.add_parser("tensor", help="tensor product of two .phm files")
    p.add_argument("left")
    p.add_argument("right")
    common(p)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("verify", help="run the acceptance criteria suite")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random instances of criteria 5, 6 and 9")
    common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every numerical check fails on NaN or inf, so numpy's warnings
        # would only add lines ahead of the one error report
        with np.errstate(all="ignore"):
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
