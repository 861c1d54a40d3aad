"""Command-line interface: subcommands, exit codes, JSON mode, determinism."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from _helpers import drop_last_row
from hadperm import completion, errors, pperm, torus
from hadperm.cli import build_parser, main
from hadperm.errors import CriterionFailure, HadpermError, NumericalFailure, UsageError
from hadperm.submagic import (
    ProjGrid,
    check_grid,
    format_pgrid,
    parse_pgrid,
    random_grid,
    read_pgrid,
)
from hadperm.torus import format_phm, fourier, parse_phm

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def run_child(*argv):
    """``python -m hadperm.cli`` in a child process that imports this
    checkout's ``src``, as the tests do."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "hadperm.cli", *(str(a) for a in argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestCheck:
    def test_fourier_passes(self, capsys):
        code, out, _ = run(capsys, "check", DATA / "f4.phm")
        assert code == 0
        assert "partial_hadamard: true" in out

    def test_not_orthogonal_fails_naming_pair(self, capsys):
        code, out, _ = run(capsys, "check", DATA / "not_orthogonal.phm")
        assert code == 1
        assert "partial_hadamard: false" in out
        assert "worst_pair: [1, 2]" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "check", DATA / "f2.phm", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["rows"] == 2


class TestCount:
    def test_count_four(self, capsys):
        code, out, _ = run(capsys, "count", "4")
        assert code == 0
        assert out.strip() == "209"

    def test_count_json(self, capsys):
        code, out, _ = run(capsys, "count", "6", "--json")
        assert json.loads(out)["count"] == 13327

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_count_past_int_digit_cap(self, capsys, flags):
        # count_all(2000) has 5,773 digits; Python 3.11+ converts at most
        # 4,300 by default, and the report must leave that cap as it was
        cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, _ = run(capsys, "count", "2000", *flags)
        assert code == 0
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap
        text = out.strip()
        if flags:
            head = '{"n": 2000, "count": '
            assert text.startswith(head) and text.endswith("}")
            text = text[len(head):-1]
        assert len(text) == 5773 and text.isdigit()
        # read back in chunks, each under the cap
        value = 0
        for k in range(0, len(text), 1000):
            chunk = text[k:k + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert value == pperm.count_all(2000)


class TestEnumerate:
    def test_two(self, capsys):
        code, out, _ = run(capsys, "enumerate", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        assert lines[0] == "2: _ _"

    def test_limit(self, capsys):
        code, _, err = run(capsys, "enumerate", "9")
        assert code == 2
        assert "limit" in err


class TestFourierAndTensor:
    def test_fourier_output(self, capsys):
        code, out, _ = run(capsys, "fourier", "2", "2")
        assert code == 0
        assert out == format_phm(fourier([2, 2]))

    def test_tensor_matches_fourier(self, capsys, tmp_path):
        code, out_f, _ = run(capsys, "tensor", DATA / "f2.phm", DATA / "f3.phm")
        assert code == 0
        assert out_f == format_phm(fourier([2, 3]))


class TestCompleteRow:
    def test_f3_top2(self, capsys):
        code, out, _ = run(capsys, "complete-row", DATA / "f3_top2.phm")
        assert code == 0
        assert out.startswith("phm v1\n3 3\n")
        # first two rows preserved exactly
        assert "1 1/3 2/3" in out

    def test_not_completable_exit_code(self, capsys, tmp_path):
        # perturb one phase of the shipped instance
        import numpy as np

        from hadperm.torus import TorusMatrix, read_phm

        h = read_phm(DATA / "f3_top2.phm")
        a = h.to_complex().copy()
        a[1, 1] *= np.exp(0.05j)
        bad = tmp_path / "bad.phm"
        bad.write_text(format_phm(TorusMatrix.from_complex(a)), encoding="utf-8")
        code, _, err = run(capsys, "complete-row", bad, "--tol", "1e-8")
        assert code == 1
        assert "constant" in err


class TestNonFiniteInput:
    @pytest.mark.parametrize("command", ["check", "grid", "complete-row", "criteria"])
    def test_nan_phm_token_is_a_usage_error(self, capsys, tmp_path, command):
        path = tmp_path / "nan.phm"
        path.write_text("phm v1\n2 3\n1 1 1\n1 (nan,0.0) 2/3\n", encoding="utf-8")
        code, out, err = run(capsys, command, path)
        assert code == 2
        assert out == ""
        assert "not unit modulus" in err

    def test_nan_pgrid_token_is_a_usage_error(self, capsys, tmp_path):
        text = (DATA / "pq_counterexample.pgrid").read_text(encoding="utf-8")
        path = tmp_path / "nan.pgrid"
        path.write_text(text.replace("(1.0,0.0)", "(nan,0.0)", 1), encoding="utf-8")
        code, out, err = run(capsys, "complete-grid", path)
        assert code == 2
        assert out == ""
        assert "non-finite" in err


class TestGrid:
    def test_m2_family_reports_semigroup(self, capsys):
        code, out, _ = run(capsys, "grid", DATA / "m2_family.phm")
        assert code == 0
        assert "commuting: true" in out
        assert "semigroup_order: 6" in out
        assert "pre_latin:" in out

    def test_non_commuting_grid_has_no_square(self, capsys, tmp_path):
        import numpy as np

        from hadperm.torus import TorusMatrix

        values = np.array([1, np.exp(0.7j), -1, -np.exp(0.7j)])
        h = TorusMatrix.from_complex(np.vstack([np.ones(4), values]))
        path = tmp_path / "noncomm.phm"
        path.write_text(format_phm(h), encoding="utf-8")
        code, out, _ = run(capsys, "grid", path)
        assert code == 0
        assert "commuting: false" in out
        assert "pre_latin" not in out

    def test_pair_scan_past_the_limit_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "f40.phm"
        path.write_text(format_phm(fourier([40])), encoding="utf-8")
        code, out, err = run(capsys, "grid", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: pair scan of a 40 x 40 grid") and err.count("\n") == 1

    def test_not_hadamard_exit_code(self, capsys):
        code, _, err = run(capsys, "grid", DATA / "not_orthogonal.phm")
        assert code == 1


class TestCompleteGrid:
    def test_pq_counterexample_to_three_fails(self, capsys):
        code, _, err = run(capsys, "complete-grid", DATA / "pq_counterexample.pgrid")
        assert code == 1
        assert "projection" in err

    def test_overflowing_corner_is_refused(self, capsys, tmp_path):
        # finite blocks near 1e200 whose corner cannot be certified; the
        # .pgrid check refuses them before the border completion runs
        rows = ["(1e+200,0.0) (1e+200,0.0)"] * 8
        path = tmp_path / "huge.pgrid"
        path.write_text("pgrid v1\n2 2\n" + "\n".join(rows) + "\n", encoding="utf-8")
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run(capsys, "complete-grid", path)
        assert code == 1
        assert out == ""
        assert "input is not submagic" in err

    def test_overflow_is_reported_in_one_line(self, tmp_path):
        # numpy warns about the overflowing products; pytest would capture
        # warnings raised in process, so the command runs in a child
        rows = ["(1e+200,0.0) (1e+200,0.0)"] * 8
        path = tmp_path / "huge.pgrid"
        path.write_text("pgrid v1\n2 2\n" + "\n".join(rows) + "\n", encoding="utf-8")
        proc = run_child("complete-grid", path)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: input is not submagic")

    def test_pq_counterexample_to_four(self, capsys):
        code, out, _ = run(
            capsys, "complete-grid", DATA / "pq_counterexample.pgrid", "--target", "4"
        )
        assert code == 0
        assert out.startswith("pgrid v1\n4 2\n")

    def test_phm_input_border_completion(self, capsys):
        code, out, _ = run(capsys, "complete-grid", DATA / "f3_top2.phm")
        assert code == 0
        assert out.startswith("pgrid v1\n3 3\n")

    def test_commuting_completion(self, capsys):
        code, out, _ = run(
            capsys, "complete-grid", DATA / "m2_family.phm", "--target", "4"
        )
        assert code == 0
        assert out.startswith("pgrid v1\n4 4\n")


class TestPgridIsCertified:
    """complete-grid refuses .pgrid input that check_grid does not certify
    submagic, at every target, before any completion runs."""

    # row 1 holds two blocks that fix the same vector, so it is not orthogonal
    ROW_CLASH = "pgrid v1\n2 1\n\n(1.0,0.0)\n\n(1.0,0.0)\n\n(0.0,0.0)\n\n(0.0,0.0)\n"
    # one block that is not a projection
    HALF = "pgrid v1\n1 1\n\n(0.5,0.0)\n"

    @pytest.mark.parametrize("target", [None, "3", "4", "5"])
    @pytest.mark.parametrize("text", [ROW_CLASH, HALF], ids=["row_clash", "half"])
    def test_not_submagic_is_refused(self, capsys, tmp_path, text, target):
        path = tmp_path / "bad.pgrid"
        path.write_text(text, encoding="utf-8")
        flags = [] if target is None else ["--target", target]
        code, out, err = run(capsys, "complete-grid", path, *flags)
        assert code == 1
        assert out == ""
        assert "input is not submagic at tol 1e-09" in err

    def test_mutated_grids_complete_only_to_magic(self, capsys, tmp_path):
        # seeded mutations of submagic grids: scale a block, swap two blocks,
        # or add noise.  A grid is refused (exit 1) or completed, and what
        # completes must be certified magic; random_grid(2, 1, 0) is the
        # identity diagonal, which one swap turns into a row of two 1s
        rng = np.random.default_rng(2013)
        bases = [read_pgrid(DATA / "pq_counterexample.pgrid").blocks] + [
            random_grid(2, d, seed).blocks for d, seed in ((1, 0), (2, 2), (3, 3))
        ]
        path = tmp_path / "mutant.pgrid"
        completed = 0
        for k in range(100):
            blocks = bases[k % len(bases)].copy()
            a, b = (divmod(int(v), 2) for v in rng.choice(4, size=2, replace=False))
            kind = int(rng.integers(3))
            if kind == 0:
                blocks[a] *= rng.choice([0.0, -1.0, 0.5, 2.0])
            elif kind == 1:
                blocks[a], blocks[b] = blocks[b].copy(), blocks[a].copy()
            else:
                blocks[a] += 1e-3 * rng.standard_normal(blocks[a].shape)
            path.write_text(format_pgrid(ProjGrid(blocks)), encoding="utf-8")
            for flags in ([], ["--target", "4"], ["--target", "5"]):
                code, out, _ = run(capsys, "complete-grid", path, *flags)
                assert code in (0, 1)
                if code == 0:
                    assert check_grid(parse_pgrid(out), 1e-8).magic
                    completed += 1
        # the mutations leave some grids submagic, so the check is exercised
        assert completed > 0


class TestCriteria:
    def test_f3_top2_all_pass(self, capsys):
        code, out, _ = run(capsys, "criteria", DATA / "f3_top2.phm")
        assert code == 0
        assert "agree: true" in out
        assert "complete_last: true" in out

    def test_json_keys(self, capsys):
        code, out, _ = run(capsys, "criteria", DATA / "f3_top2.phm", "--json")
        payload = json.loads(out)
        assert payload["modulus_constant"] is True
        assert payload["gram_criterion"] is True
        assert payload["weighted_criterion"] is True
        assert payload["complete_last"] is True
        assert payload["agree"] is True


class TestNumericalFailure:
    def test_svd_that_does_not_converge(self, capsys, monkeypatch):
        # LinAlgError is a ValueError, yet exit 3, not 2
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(completion, "criteria", no_convergence)
        code, out, err = run(capsys, "criteria", DATA / "f3_top2.phm")
        assert code == 3
        assert out == ""
        assert err == "error: SVD did not converge\n"

    @pytest.mark.parametrize("command, name", [
        ("criteria", "criteria"), ("complete-row", "complete_row"),
    ])
    def test_arithmetic_error(self, capsys, monkeypatch, command, name):
        # what Python's float power raises past 1.8e308
        def overflow(*args, **kwargs):
            raise OverflowError(34, "Numerical result out of range")

        monkeypatch.setattr(completion, name, overflow)
        code, out, err = run(capsys, command, DATA / "f3_top2.phm")
        assert code == 3
        assert out == ""
        assert err == "error: (34, 'Numerical result out of range')\n"


@pytest.fixture(scope="module")
def deleted_row_f256(tmp_path_factory):
    """The deleted-row F_256 as a file, and its minors in closed form: the
    deleted row r spans the kernel of the others, so Z = 256^127 * r and
    det H^(j) = (-1)^j * conj(Z_j), up to one unimodular factor."""
    full = fourier([256])
    path = tmp_path_factory.mktemp("large") / "f256.phm"
    path.write_text(format_phm(drop_last_row(full)), encoding="utf-8")
    signs = (-1.0) ** np.arange(1, 257)
    return path, signs * (2.0**1016 * full.to_complex()[-1]).conj()


@pytest.fixture(scope="module")
def deleted_row_f258(tmp_path_factory):
    path = tmp_path_factory.mktemp("large") / "f258.phm"
    path.write_text(format_phm(drop_last_row(fourier([258]))), encoding="utf-8")
    return path


class TestLargeN:
    # Every deleted-row F_N completes.  Its minors have modulus N^(N/2-1),
    # 2^1016 at N = 256; their squared sum c overflows from N = 144.
    def test_criteria_past_the_overflow_of_c(self, capsys, tmp_path):
        path = tmp_path / "f150.phm"
        path.write_text(format_phm(drop_last_row(fourier([150]))), encoding="utf-8")
        code, out, err = run(capsys, "criteria", path)
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == [
            "modulus_constant: true",
            "modulus_hadamard_value: true",
            "gram_criterion: true",
            "weighted_criterion: true",
            "weighted_c: inf",
            "complete_last: true",
            "agree: true",
        ]

    @pytest.fixture
    def f256(self, monkeypatch, deleted_row_f256):
        # the minor pass at N = 256 takes seconds; everything after it runs
        path, minors = deleted_row_f256
        monkeypatch.setattr(completion, "_minors", lambda h: minors)
        return path

    def test_criteria(self, capsys, f256):
        code, out, err = run(capsys, "criteria", f256)
        assert (code, err) == (0, "")
        assert out.splitlines()[-4:] == [
            "weighted_criterion: true", "weighted_c: inf", "complete_last: true", "agree: true",
        ]

    def test_criteria_json_writes_no_infinity(self, capsys, f256):
        code, out, err = run(capsys, "criteria", f256, "--json")
        assert (code, err) == (0, "")
        assert "Infinity" not in out
        payload = json.loads(out)
        assert payload["weighted_c"] is None
        assert payload["agree"] is True
        assert len(payload["moduli"]) == 256

    def test_complete_row(self, capsys, f256):
        code, out, err = run(capsys, "complete-row", f256)
        assert (code, err) == (0, "")
        a = parse_phm(out).to_complex()
        assert np.abs(a @ a.conj().T - 256 * np.eye(256)).max() <= 1e-9

    @pytest.mark.parametrize("command", ["criteria", "complete-row"])
    def test_minor_past_a_double_is_refused(self, capsys, deleted_row_f258, command):
        # 258^128 > 1.8e308: the first minor already overflows
        code, out, err = run(capsys, command, deleted_row_f258)
        assert (code, out) == (3, "")
        assert err == "error: determinant of minor without column 1 is not a finite double\n"


class TestOversizedRequests:
    """Requests past a size limit exit 2 with one error line, refused by
    their size before the work is allocated."""

    @staticmethod
    def run_traced(capsys, *argv):
        tracemalloc.start()
        try:
            result = run(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return (*result, peak)

    @pytest.mark.parametrize("argv, message", [
        (("complete-grid", DATA / "f2.phm", "--target", "100000"),
         "a 100000 x 100000 grid of 2 x 2 blocks exceeds the limit of 1.00e+08 bytes"),
        (("fourier", "100000"),
         "Fourier matrix of orders [100000] exceeds the limit of 1048576 entries"),
    ])
    def test_refused_by_size(self, capsys, argv, message):
        code, out, err, peak = self.run_traced(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert peak < 2**21

    def test_grid_past_the_pair_scan_limit_is_never_built(self, capsys, tmp_path):
        # the grid of F_40 takes 41 MB; reading F_40 takes well under 2 MB
        path = tmp_path / "f40.phm"
        path.write_text(format_phm(fourier([40])), encoding="utf-8")
        code, out, err, peak = self.run_traced(capsys, "grid", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: pair scan of a 40 x 40 grid") and err.count("\n") == 1
        assert peak < 2**21

    def test_tensor_past_the_entry_limit(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "f8.phm"
        path.write_text(format_phm(fourier([8])), encoding="utf-8")
        monkeypatch.setattr(torus, "_ENTRY_LIMIT", 4095)
        code, out, err = run(capsys, "tensor", path, path)
        assert (code, out) == (2, "")
        assert err == (
            "error: tensor product of a 8 x 8 and a 8 x 8 matrix has 4096 entries, "
            "above the limit 4095\n"
        )


FAMILY_EXITS = {CriterionFailure: 1, UsageError: 2, NumericalFailure: 3}
CONCRETE_ERRORS = [
    getattr(errors, name) for name in errors.__all__
    if getattr(errors, name) not in (HadpermError, *FAMILY_EXITS)
]
BUILTIN_EXITS = {np.linalg.LinAlgError: 3, OverflowError: 3, ValueError: 2, OSError: 2}


class TestExitTable:
    """Every error the program raises ends in its family's exit code."""

    @pytest.mark.parametrize("cls", CONCRETE_ERRORS, ids=lambda cls: cls.__name__)
    def test_one_family_each(self, cls):
        assert sum(issubclass(cls, family) for family in FAMILY_EXITS) == 1

    @pytest.mark.parametrize(
        "cls", CONCRETE_ERRORS + list(BUILTIN_EXITS), ids=lambda cls: cls.__name__
    )
    def test_exit_code(self, capsys, monkeypatch, cls):
        expected = BUILTIN_EXITS.get(cls) or next(
            code for family, code in FAMILY_EXITS.items() if issubclass(cls, family)
        )

        def fail(orders):
            raise cls("refused")

        monkeypatch.setattr(torus, "fourier", fail)
        code, out, err = run(capsys, "fourier", "2")
        assert (code, out, err) == (expected, "", "error: refused\n")


MUTANT_TOKENS = ("1/0", "nan", "1e309", "(1e308,1e308)")
MUTATED_COMMANDS = {
    ".phm": ("check", "grid", "complete-row", "complete-grid", "criteria"),
    ".pls": ("semigroup",),
    ".pgrid": ("complete-grid",),
}


class TestMutatedInputs:
    def test_every_outcome_is_an_exit_code(self, capsys, tmp_path):
        # every data file with each token once, at a seeded random position
        rng = np.random.default_rng(16)
        codes = []
        for source in sorted(DATA.iterdir()):
            lines = source.read_text(encoding="utf-8").splitlines()
            spots = [
                (r, c) for r, line in enumerate(lines) if not line.startswith("#")
                for c in range(len(line.split()))
            ]
            for token in MUTANT_TOKENS:
                r, c = spots[rng.integers(len(spots))]
                words = lines[r].split()
                words[c] = token
                path = tmp_path / f"mutant{source.suffix}"
                path.write_text(
                    "\n".join([*lines[:r], " ".join(words), *lines[r + 1:]]) + "\n",
                    encoding="utf-8",
                )
                for command in MUTATED_COMMANDS[source.suffix]:
                    with np.errstate(all="ignore"):
                        code = main([command, str(path)])
                    capsys.readouterr()
                    assert code in (0, 1, 2, 3), (source.name, token, r, c, command)
                    codes.append(code)
        assert len(codes) >= 180
        assert {1, 2} <= set(codes)


class TestSemigroup:
    def test_from_pls(self, capsys, tmp_path):
        path = tmp_path / "square.pls"
        path.write_text("pls v1\n2 3\n1 2\n3 1\n")
        code, out, _ = run(capsys, "semigroup", path)
        assert code == 0
        assert out.splitlines()[0] == "semigroup 2 6"

    @pytest.mark.parametrize("text", ["pls v1\n0 3\n", "pls v1\n1 0\n1\n"])
    def test_sizes_below_one_are_usage_errors(self, capsys, tmp_path, text):
        path = tmp_path / "square.pls"
        path.write_text(text)
        code, out, err = run(capsys, "semigroup", path)
        assert code == 2
        assert out == ""
        assert "sizes must be positive" in err

    @pytest.mark.parametrize(
        "argv", [("semigroup", DATA / "pls4x6.pls"), ("grid", DATA / "m2_family.phm")]
    )
    def test_closure_limit_exit_code(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(pperm, "CLOSURE_LIMIT", 5)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "exceeds 5 elements" in err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("grid", str(DATA / "m2_family.phm"), "--json"),
            ("criteria", str(DATA / "f3_top2.phm"), "--json"),
            ("enumerate", "3"),
        ],
    )
    def test_byte_identical_reports(self, capsys, argv):
        code_a, out_a, _ = run(capsys, *argv)
        code_b, out_b, _ = run(capsys, *argv)
        assert code_a == code_b
        assert out_a == out_b


# --tol and --seed sit only on the subcommands that read them.
READS = {
    "check": {"--tol"},
    "grid": {"--tol"},
    "complete-row": {"--tol"},
    "complete-grid": {"--tol"},
    "criteria": {"--tol"},
    "semigroup": set(),
    "count": set(),
    "enumerate": set(),
    "fourier": set(),
    "tensor": set(),
    "verify": {"--seed"},
}
POSITIONAL = {
    "check": [DATA / "f3.phm"],
    "grid": [DATA / "f3.phm"],
    "complete-row": [DATA / "f3_top2.phm"],
    "complete-grid": [DATA / "f3_top2.phm"],
    "criteria": [DATA / "f3_top2.phm"],
    "semigroup": [DATA / "pls4x6.pls"],
    "count": [4],
    "enumerate": [2],
    "fourier": [2],
    "tensor": [DATA / "f2.phm", DATA / "f3.phm"],
    "verify": [],
}
TOL_SEED_PAIRS = [(cmd, flag) for cmd in READS for flag in ("--tol", "--seed")]


def command_argv(command, *flags):
    return [command, *(str(a) for a in POSITIONAL[command]), *flags]


class TestUsage:
    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "4", "--bogus"])
        assert exc.value.code == 2

    def test_limit_only_on_enumerate(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["semigroup", str(DATA / "pls4x6.pls"), "--limit", "1"])
        assert exc.value.code == 2
        assert "--limit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag", [pair for pair in TOL_SEED_PAIRS if pair[1] not in READS[pair[0]]]
    )
    def test_unread_tol_and_seed_rejected(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main(command_argv(command, flag, "1"))
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag", [pair for pair in TOL_SEED_PAIRS if pair[1] in READS[pair[0]]]
    )
    def test_read_tol_and_seed_accepted(self, command, flag):
        args = build_parser().parse_args(command_argv(command, flag, "1"))
        assert getattr(args, flag[2:]) == 1

    def test_json_on_every_subcommand(self):
        for command in READS:
            assert build_parser().parse_args(command_argv(command, "--json")).json

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "no-such-file.phm")
        assert code == 2

    def test_directory_input(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", tmp_path)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [c for c in READS if "--tol" in READS[c]])
    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_tol_must_be_finite_and_nonnegative(self, capsys, command, value):
        with pytest.raises(SystemExit) as exc:
            main(command_argv(command, "--tol", value))
        assert exc.value.code == 2
        assert "argument --tol: must be a finite number >= 0" in capsys.readouterr().err

    def test_bad_format(self, capsys, tmp_path):
        path = tmp_path / "bad.phm"
        path.write_text("not a phm file\n")
        code, _, err = run(capsys, "check", path)
        assert code == 2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_child("count", "3")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "34"
