"""Golden CLI outputs: stdout and exit code of every subcommand on every
``data/`` file it accepts, in text and ``--json`` mode, and of ``--help`` for
the program and for each subcommand.

Each case is stored as ``golden/<case>.out``: an ``exit: N`` line followed by
the exact stdout.  argparse wraps help text to the terminal width, so every
case runs with ``COLUMNS`` fixed.  After an intended change of output, rewrite
them with ``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import os
from pathlib import Path
from unittest import mock

import pytest

from hadperm.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"

_PHM = sorted(p.name for p in DATA.glob("*.phm"))

# (subcommand, positional arguments); inputs a subcommand rejects with a
# usage error (exit 2) are left out.  ``verify`` exits 1 on the known
# criterion-2 failure; its report carries no wall-clock time.
_COMMANDS = (
    [("check", [name]) for name in _PHM]
    + [("grid", [name]) for name in _PHM]
    + [("complete-row", [name]) for name in ("f3_top2.phm", "f4_top3_turned.phm")]
    + [("complete-grid", [name]) for name in _PHM + ["pq_counterexample.pgrid"]]
    + [
        ("complete-grid", [name, "--target", target])
        for name, target in (
            ("f3_top2.phm", "5"),
            ("f4.phm", "6"),
            ("m2_family.phm", "5"),
            ("pq_counterexample.pgrid", "5"),
        )
    ]
    + [("criteria", [name]) for name in ("f3_top2.phm", "f4_top3_turned.phm")]
    + [("semigroup", ["pls4x6.pls"])]
    + [
        ("count", ["4"]),
        ("count", ["30"]),
        ("enumerate", ["2"]),
        ("fourier", ["2", "3"]),
        ("tensor", ["f2.phm", "f3.phm"]),
        ("verify", []),
    ]
)

_SUBCOMMANDS = (
    "check", "grid", "complete-row", "complete-grid", "criteria", "semigroup",
    "count", "enumerate", "fourier", "tensor", "verify",
)

CASES = {
    "__".join([command, *args]) + suffix: [
        command,
        *(str(DATA / a) if (DATA / a).exists() else a for a in args),
        *flags,
    ]
    for command, args in _COMMANDS
    for suffix, flags in (("", []), (".json", ["--json"]))
}
CASES["help"] = ["--help"]
CASES.update({f"{command}__help": [command, "--help"] for command in _SUBCOMMANDS})


def run_case(argv: list[str]) -> str:
    """The ``exit: N`` line and stdout of one run; argparse's exit (from
    ``--help``) is recorded like a returned code."""
    out = io.StringIO()
    with (
        mock.patch.dict(os.environ, {"COLUMNS": "80"}),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"exit: {code}\n{out.getvalue()}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case):
    expected = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert run_case(CASES[case]) == expected


def test_every_golden_file_is_a_case():
    assert {p.name[: -len(".out")] for p in GOLDEN.glob("*.out")} == set(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.out"):
        stale.unlink()
    for name, argv in sorted(CASES.items()):
        (GOLDEN / f"{name}.out").write_text(run_case(argv), encoding="utf-8")
