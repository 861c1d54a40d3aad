"""Completion theory for (N-1) x N partial Hadamard matrices: kernel vector,
modulus profile, explicit row completion, and the two grid criteria."""

import ast
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from _helpers import (
    drop_last_row,
    exact_randomized_fourier,
    phases,
    reference_minors,
    take_rows,
)
from hadperm import _linalg, completion, submagic, torus
from hadperm._linalg import one_blas_thread, spectral_norm
from hadperm.completion import (
    complete_row,
    criteria,
    gram_criterion,
    kernel_vector,
    modulus_profile,
    weighted_criterion,
)
from hadperm.errors import IllConditioned, NotCompletable, NotHadamard
from hadperm.submagic import check_grid, complete_last, grid_from_hadamard
from hadperm.torus import TorusMatrix, fourier, is_partial_hadamard, minor_det

W3 = np.exp(2j * np.pi / 3)


def f3_top2():
    return take_rows(fourier([3]), 2)


def ones_row():
    return TorusMatrix.from_complex(np.array([[1.0, 1.0]], dtype=complex))


def perturb(h, i, j, angle=0.05):
    a = h.to_complex().copy()
    a[i, j] *= np.exp(1j * angle)
    return TorusMatrix.from_complex(a)


class TestKernelVector:
    def test_f3_exact_values(self):
        z = kernel_vector(f3_top2())
        expected = np.array([-1j * math.sqrt(3), W3 - 1, 1 - W3**2])
        assert np.abs(z - expected).max() <= 1e-12
        assert np.abs(np.abs(z) - math.sqrt(3)).max() <= 1e-12

    def test_two_column_case(self):
        z = kernel_vector(ones_row())
        assert np.abs(z - np.array([-1.0, 1.0])).max() <= 1e-14

    def test_f4_moduli(self):
        z = kernel_vector(take_rows(fourier([4]), 3))
        assert np.abs(np.abs(z) - 4.0).max() <= 1e-10

    def test_orthogonal_to_all_rows(self):
        rng = np.random.default_rng(71)
        for n in range(3, 9):
            h = drop_last_row(exact_randomized_fourier(n, rng))
            z = kernel_vector(h)
            residual = np.abs(h.to_complex() @ z.conj()).max()
            assert residual <= 1e-8 * n ** (n / 2.0)

    def test_moduli_match_independent_determinants(self):
        rng = np.random.default_rng(73)
        h = drop_last_row(exact_randomized_fourier(5, rng))
        z = kernel_vector(h)
        for j in range(1, 6):
            assert abs(z[j - 1]) == pytest.approx(abs(minor_det(h, j)))

    def test_requires_partial_hadamard(self):
        bad = TorusMatrix.from_complex(np.ones((2, 3), dtype=complex))
        with pytest.raises(NotHadamard):
            kernel_vector(bad)

    def test_not_hadamard_message_matches_grid(self):
        # orthogonal rows, moduli off by 1e-7: only the modulus test fails
        h = TorusMatrix.from_complex((1 + 1e-7) * f3_top2().to_complex())
        with pytest.raises(NotHadamard) as from_kernel:
            kernel_vector(h, tol=1e-9)
        with pytest.raises(NotHadamard) as from_grid:
            grid_from_hadamard(h, tol=1e-9)
        assert str(from_kernel.value) == str(from_grid.value)
        assert "worst modulus error 1.000e-07" in str(from_kernel.value)

    def test_requires_shape(self):
        with pytest.raises(ValueError):
            kernel_vector(fourier([3]))


class TestModulusProfile:
    def test_f3(self):
        profile = modulus_profile(f3_top2())
        assert profile.constant and profile.hadamard_value
        assert np.abs(np.array(profile.moduli) - math.sqrt(3)).max() <= 1e-12

    def test_two_column_case(self):
        profile = modulus_profile(ones_row())
        # N^(N/2-1) = 2^0 = 1
        assert profile.moduli == (1.0, 1.0)
        assert profile.constant and profile.hadamard_value

    def test_f4(self):
        profile = modulus_profile(take_rows(fourier([4]), 3))
        assert profile.constant and profile.hadamard_value
        assert np.abs(np.array(profile.moduli) - 4.0).max() <= 1e-10

    def test_perturbed_profile_not_constant(self):
        profile = modulus_profile(perturb(f3_top2(), 1, 1), tol=1e-8)
        assert not profile.constant
        assert not profile.hadamard_value

    def test_constant_implies_hadamard_value_on_positives(self):
        # for genuine partial Hadamard inputs the common modulus, when it
        # exists, can only be N^(N/2-1)
        rng = np.random.default_rng(97)
        for n in (3, 4, 5, 6):
            for _ in range(5):
                h = drop_last_row(exact_randomized_fourier(n, rng))
                profile = modulus_profile(h, tol=1e-8)
                assert profile.constant and profile.hadamard_value


class TestCompleteRow:
    def test_f3_appended_row(self):
        completed = complete_row(f3_top2())
        expected = -1j * np.array([1, W3**2, W3])
        assert np.abs(completed.to_complex()[2] - expected).max() <= 1e-12
        a = completed.to_complex()
        assert np.abs(a @ a.conj().T - 3 * np.eye(3)).max() <= 1e-12

    def test_two_column_case(self):
        completed = complete_row(ones_row())
        assert np.array_equal(
            completed.to_complex(), np.array([[1, 1], [-1, 1]], dtype=complex)
        )

    def test_f4_completion(self):
        h = take_rows(fourier([4]), 3)
        completed = complete_row(h)
        a = completed.to_complex()
        assert np.abs(a @ a.conj().T - 4 * np.eye(4)).max() <= 1e-9
        # the appended row is a unit phase times the deleted Fourier row
        ratio = a[3] / fourier([4]).to_complex()[3]
        assert np.abs(ratio - ratio[0]).max() <= 1e-9
        assert abs(abs(ratio[0]) - 1.0) <= 1e-9

    def test_original_rows_bit_exact(self):
        h = f3_top2()
        completed = complete_row(h)
        assert phases(completed)[:2] == phases(h)
        assert np.array_equal(completed.to_complex()[:2], h.to_complex())
        assert phases(completed)[2] == [None] * 3
        assert not completed.is_exact

    def test_unit_rows_when_profile_is_hadamard(self):
        rng = np.random.default_rng(79)
        for n in (3, 5, 7):
            h = drop_last_row(exact_randomized_fourier(n, rng))
            completed = complete_row(h)
            assert is_partial_hadamard(completed, tol=1e-9).ok

    def test_perturbed_not_completable(self):
        with pytest.raises(NotCompletable) as err:
            complete_row(perturb(f3_top2(), 1, 2), tol=1e-8)
        assert err.value.witness is not None
        assert not err.value.witness.constant


class TestGramCriterion:
    def test_f3(self):
        # G - I = (1/3) * all-ones, a projection
        assert gram_criterion(f3_top2())

    def test_two_column_case(self):
        # N - 2 = 0, and G = (1/2) * all-ones is itself a projection
        assert gram_criterion(ones_row())

    def test_f4(self):
        assert gram_criterion(take_rows(fourier([4]), 3))

    def test_perturbed_fails(self):
        assert not gram_criterion(perturb(f3_top2(), 1, 1), tol=1e-8)


class TestWeightedCriterion:
    def test_f3(self):
        result = weighted_criterion(f3_top2())
        assert result.passes
        assert result.c == pytest.approx(9.0, abs=1e-10)

    def test_two_column_case(self):
        result = weighted_criterion(ones_row())
        assert result.passes
        assert result.c == pytest.approx(2.0, abs=1e-12)

    def test_f4(self):
        result = weighted_criterion(take_rows(fourier([4]), 3))
        assert result.passes
        assert result.c == pytest.approx(64.0, abs=1e-8)

    def test_perturbed_fails(self):
        assert not weighted_criterion(perturb(f3_top2(), 0, 2), tol=1e-8).passes


class TestCriteriaBridge:
    def test_border_completion_iff_gram(self):
        rng = np.random.default_rng(83)
        for n in (3, 4, 5):
            for _ in range(10):
                h = drop_last_row(exact_randomized_fourier(n, rng))
                instances = [(h, True), (perturb(h, 0, int(rng.integers(n))), False)]
                for matrix, expected in instances:
                    gram = gram_criterion(matrix, tol=1e-8)
                    grid = grid_from_hadamard(matrix, tol=0.1)
                    try:
                        complete_last(grid, tol=1e-8)
                        border = True
                    except NotCompletable:
                        border = False
                    assert gram == border == expected

    def test_border_corner_is_the_gram_matrix(self):
        # The total sum of the loose-certified grid of an (N-1) x N input,
        # less (M-1) I, is G - (N-2) I, the matrix of the Gram test.
        rng = np.random.default_rng(101)
        for n in range(3, 9):
            for _ in range(4):
                h = drop_last_row(exact_randomized_fourier(n, rng))
                i, j = int(rng.integers(n - 1)), int(rng.integers(n))
                for matrix in (h, perturb(h, i, j)):
                    a = matrix.to_complex()
                    q = np.abs(a.conj().T @ a) ** 2 / n - (n - 2) * np.eye(n)
                    total = grid_from_hadamard(matrix, tol=0.1).total_sum()
                    corner = total - (matrix.rows - 1) * np.eye(n)
                    assert np.abs(corner - q).max() <= 1e-13

    def test_positive_completion_certifies_magic(self):
        rng = np.random.default_rng(89)
        h = drop_last_row(exact_randomized_fourier(5, rng))
        full = complete_last(grid_from_hadamard(h), tol=1e-9)
        assert check_grid(full, 1e-8).magic


class TestCriteria:
    def test_votes_match_the_separate_tests(self):
        rng = np.random.default_rng(97)
        for n in (3, 4, 5):
            h = drop_last_row(exact_randomized_fourier(n, rng))
            for matrix in (h, perturb(h, 0, int(rng.integers(n)))):
                report = criteria(matrix, tol=1e-8)
                assert report.profile == modulus_profile(matrix, tol=1e-8)
                assert report.gram == gram_criterion(matrix, tol=1e-8)
                assert report.weighted == weighted_criterion(matrix, tol=1e-8)
                assert list(report.votes) == [
                    "modulus_constant", "gram", "weighted", "complete_last"
                ]
                assert set(report.votes.values()) == {matrix is h}

    @staticmethod
    def border_instances():
        # the inputs of test_border_corner_is_the_gram_matrix and their
        # perturbed twins
        rng = np.random.default_rng(101)
        for n in range(3, 9):
            for _ in range(4):
                h = drop_last_row(exact_randomized_fourier(n, rng))
                i, j = int(rng.integers(n - 1)), int(rng.integers(n))
                yield h
                yield perturb(h, i, j)

    @pytest.mark.parametrize("tol", [1e-9, 1e-8])
    def test_border_vote_is_whether_complete_last_succeeds(self, tol):
        votes = []
        for matrix in self.border_instances():
            try:
                complete_last(grid_from_hadamard(matrix, tol=0.1), tol=tol)
                completes = True
            except NotCompletable:
                completes = False
            assert criteria(matrix, tol=tol).border == completes
            votes.append(completes)
        assert set(votes) == {True, False}

    def test_border_vote_does_not_build_the_completion(self, monkeypatch):
        # neither the grid nor its completion
        def refuse(*args, **kwargs):
            raise AssertionError("criteria built a grid")

        for name in ("grid_from_hadamard", "complete_last"):
            monkeypatch.setattr(submagic, name, refuse)
            # also wherever completion might hold its own reference
            monkeypatch.setattr(completion, name, refuse, raising=False)
        h = drop_last_row(fourier([5]))
        assert list(criteria(h).votes.values()) == [True] * 4
        assert list(criteria(perturb(h, 1, 2), tol=1e-8).votes.values()) == [False] * 4

    def test_completion_imports_nothing_from_submagic(self):
        names = set()
        for node in ast.walk(ast.parse(Path(completion.__file__).read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
                names.add(getattr(node, "module", None) or "")
        assert not any("submagic" in name for name in names)

    def test_memory_stays_below_the_grid(self):
        # the grid of the deleted-row F_64 alone is 16 * 63^2 * 64^2 bytes,
        # about 260 MB
        h = drop_last_row(fourier([64]))
        tracemalloc.start()
        try:
            report = criteria(h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(report.votes.values())
        assert peak < 4 * 2**20

    def test_not_hadamard_after_well_conditioned_minors(self):
        # minors -1-i, -2 and i-1 are well-conditioned, the kernel residual
        # vanishes, and |<R_1, R_2>| = 1 > 0.1 * 3 fails the certification
        h = TorusMatrix.from_complex(np.array([[1, 1, 1], [1, 1j, -1]], dtype=complex))
        with pytest.raises(NotHadamard, match=r"\|<R_i,R_j>\| = 1\.000e\+00"):
            criteria(h)

    def test_singular_minor_raises_before_certification(self):
        # not partial Hadamard either (|<R_1, R_2>| = 1), but the minors
        # come first
        h = TorusMatrix.from_complex(np.array([[1, 1, 1], [1, 1, -1]], dtype=complex))
        assert not is_partial_hadamard(h, 0.1).ok
        with pytest.raises(IllConditioned, match="without column 3 is numerically singular"):
            criteria(h)


class TestMinorsOncePerCall:
    """Each matrix takes its minors once, shared by every completion test."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        batched = torus._minor_dets

        def counting_minor_dets(a, cols):
            calls.append(list(cols))
            return batched(a, cols)

        monkeypatch.setattr(torus, "_minor_dets", counting_minor_dets)
        return calls

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_complete_row_takes_n_minors(self, counted, n):
        complete_row(drop_last_row(fourier([n])))
        assert counted == [list(range(1, n + 1))]

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_criteria_takes_n_minors(self, counted, n):
        assert all(criteria(drop_last_row(fourier([n]))).votes.values())
        assert counted == [list(range(1, n + 1))]

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_every_test_of_one_matrix_shares_one_pass(self, counted, n):
        h = drop_last_row(fourier([n]))
        assert modulus_profile(h).constant
        assert gram_criterion(h)
        assert weighted_criterion(h).passes
        kernel_vector(h)
        complete_row(h)
        assert all(criteria(h).votes.values())
        assert counted == [list(range(1, n + 1))]

    def test_an_equal_matrix_takes_its_own_pass(self, counted):
        h, g = drop_last_row(fourier([5])), drop_last_row(fourier([5]))
        assert h == g and h is not g
        modulus_profile(h)
        modulus_profile(g)
        assert len(counted) == 2

    def test_a_failing_pass_stores_nothing(self, counted):
        h = TorusMatrix.from_complex(np.array([[1, 1, 1], [1, 1, -1]], dtype=complex))
        texts = []
        for _ in range(2):
            with pytest.raises(IllConditioned, match="without column 3 is numerically singular") as info:
                criteria(h)
            texts.append(str(info.value))
        assert texts[0] == texts[1]
        assert len(counted) == 2

    def test_stored_minors_are_read_only(self):
        h = drop_last_row(fourier([5]))
        moduli = modulus_profile(h).moduli
        with pytest.raises(ValueError, match="read-only"):
            h._minors[0] = 0
        z = kernel_vector(h)
        z[:] = 0
        assert modulus_profile(h).moduli == moduli


def float_phased_fourier(n: int, rng: np.random.Generator) -> TorusMatrix:
    """Deleted-row F_n with random float row and column phases."""
    rows = np.exp(2j * np.pi * rng.random(n - 1))
    cols = np.exp(2j * np.pi * rng.random(n))
    return TorusMatrix.from_complex(
        rows[:, None] * fourier([n]).to_complex()[:-1] * cols[None, :]
    )


def minor_pool(seed: int, sizes=range(2, 25)):
    """Exact and float deleted-row F_N with random row and column phases,
    each followed by its perturbed twin."""
    rng = np.random.default_rng(seed)
    for n in sizes:
        for h in (
            drop_last_row(exact_randomized_fourier(n, rng)),
            float_phased_fourier(n, rng),
        ):
            yield h
            yield perturb(h, int(rng.integers(n - 1)), int(rng.integers(n)))


def assert_bit_equal(got, want):
    assert got.shape == want.shape
    assert (got == want).all(), np.flatnonzero(got != want)


class TestBatchedMinorsAreExact:
    def test_pool_equals_per_column_reference(self):
        # the second call reads the minors the first one stored
        for h in (ones_row(), *minor_pool(109)):
            want = reference_minors(h)
            assert_bit_equal(completion._minors(h), want)
            assert_bit_equal(completion._minors(h), want)

    def test_minor_det_equals_reference(self):
        for h in minor_pool(113, sizes=(2, 3, 7, 16, 24)):
            want = reference_minors(h)
            for j in range(1, h.cols + 1):
                assert minor_det(h, j) == want[j - 1]

    @pytest.mark.parametrize("columns", [1, 2, 5])
    def test_batches_below_the_cap(self, monkeypatch, columns):
        # a cap of `columns` minors of 11 x 11 splits the 12 columns into
        # several batches, the last one short when 12 is not a multiple
        monkeypatch.setattr(torus, "_MINOR_BATCH", columns * 11 * 11)
        for h in minor_pool(127, sizes=(12,)):
            assert_bit_equal(completion._minors(h), reference_minors(h))

    def test_above_the_cap_memory_is_bounded(self):
        h = TorusMatrix.from_complex(fourier([96]).to_complex()[:-1])
        assert 95 * 95 * 96 > torus._MINOR_BATCH
        tracemalloc.start()
        try:
            minors = completion._minors(h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert_bit_equal(minors, reference_minors(h))

    def test_benchmark_sizes_take_one_batch(self, monkeypatch):
        # the HH* bound clears every minor of the deleted-row F_24, so the
        # one stack takes a det call and no SVD
        calls = {"det": [], "svd": []}
        for name in calls:
            def counting(a, *args, _name=name, _call=getattr(np.linalg, name), **kwargs):
                calls[_name].append(a.shape)
                return _call(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        completion._minors(drop_last_row(fourier([24])))
        assert calls == {"det": [(24, 23, 23)], "svd": []}


F128_DIGEST = (
    "import hashlib; from hadperm import completion; "
    "from hadperm.torus import TorusMatrix, fourier; "
    "h = TorusMatrix.from_complex(fourier([128]).to_complex()[:-1]); "
    "print(hashlib.sha256(completion._minors(h).tobytes()).hexdigest())"
)


class TestMinorsAtEveryThreadCount:
    def test_f128_minors_at_one_and_two_threads(self):
        # unpinned, the deleted-row F_128 takes other last bits at two
        # OpenBLAS threads than at one
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        children = [
            subprocess.Popen(
                [sys.executable, "-c", F128_DIGEST],
                stdout=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            )
            for threads in ("1", "2")
        ]
        digests = [child.communicate(timeout=120)[0] for child in children]
        assert [child.returncode for child in children] == [0, 0]
        assert digests[0] == digests[1] != ""

    @pytest.fixture
    def two_threads(self):
        threads = _linalg._openblas_threads()
        if threads is None:
            pytest.skip("numpy bundles no OpenBLAS here")
        get, set_ = threads
        before = get()
        set_(2)
        yield get
        set_(before)

    def test_restores_the_thread_count(self, two_threads):
        with one_blas_thread():
            with one_blas_thread():
                assert two_threads() == 1
            assert two_threads() == 1
        assert two_threads() == 2

    def test_threads_share_the_pin_and_the_minors(self, two_threads):
        # every thread reads one thread inside its block, the count comes
        # back after the last one, and a matrix filled from several threads
        # keeps the reference minors
        pool = list(minor_pool(137, sizes=(5, 9)))
        seen, minors = [], []
        start = threading.Barrier(4, timeout=60)

        def work():
            start.wait()
            for h in pool * 8:
                with one_blas_thread():
                    minors.append((h, completion._minors(h)))
                    seen.append(two_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert seen == [1] * 32 * len(pool)
        assert two_threads() == 2
        assert len(minors) == 32 * len(pool)
        for h, got in minors:
            assert_bit_equal(got, reference_minors(h))

    def test_missing_symbol_leaves_minors_working(self, monkeypatch):
        monkeypatch.setattr(_linalg.ctypes, "CDLL", lambda path: object())
        assert _linalg._openblas_threads.__wrapped__() is None
        monkeypatch.setattr(_linalg, "_openblas_threads", lambda: None)
        for h in minor_pool(131, sizes=(2, 7, 16)):
            assert_bit_equal(completion._minors(h), reference_minors(h))


def conditioning_pool(seed: int, sizes=(2, 3, 4, 5, 7, 8, 12, 16, 24, 40)):
    """Raw (N-1) x N arrays for the minors' conditioning bound: each
    deleted-row F_N with random float phases, its perturbed twin, a Gaussian
    array, near-equal columns, near-dependent rows, the array scaled by
    10^150, 10^-150 and 10^200, one column scaled by 10^8 and by 10^-8, and
    one NaN entry."""
    rng = np.random.default_rng(seed)
    for n in sizes:
        a = float_phased_fourier(n, rng).to_complex()
        i, j = int(rng.integers(n - 1)), int(rng.integers(n))
        yield a
        yield perturb(TorusMatrix.from_complex(a), i, j).to_complex()
        yield rng.standard_normal((n - 1, n)) + 1j * rng.standard_normal((n - 1, n))
        for angle in (0.0, 1e-11, 1e-7, 1e-3):
            b = a.copy()
            b[:, j] = b[:, (j + 1) % n] * np.exp(1j * angle * np.arange(n - 1))
            yield b
            if n > 2:
                b = a.copy()
                b[i] = b[(i + 1) % (n - 1)] * np.exp(1j * angle * np.arange(n))
                yield b
        for scale in (1e150, 1e-150, 1e200):
            yield scale * a
        for scale in (1e8, 1e-8):
            b = a.copy()
            b[:, j] *= scale
            yield b
        b = a.copy()
        b[i, j] = np.nan
        yield b


def minor_outcome(a: np.ndarray):
    """The bytes of all minors of ``a``, or the text of the error the pass
    raises."""
    try:
        return torus._minor_dets(a, range(1, a.shape[1] + 1)).tobytes()
    except (IllConditioned, np.linalg.LinAlgError) as exc:
        return f"{type(exc).__name__}: {exc}"


def clear_nothing(a: np.ndarray) -> np.ndarray:
    return np.zeros(a.shape[1], dtype=bool)


class TestConditioningBound:
    """The minors that one eigendecomposition of HH* clears skip the SVD;
    the pass gives the same minors and the same errors as with the SVD on
    every minor."""

    def test_same_outcome_as_svd_on_every_minor(self, monkeypatch):
        pool = list(conditioning_pool(131))
        got = [minor_outcome(a) for a in pool]
        monkeypatch.setattr(torus, "_conditioned_columns", clear_nothing)
        assert got == [minor_outcome(a) for a in pool]
        assert {type(outcome) for outcome in got} == {bytes, str}

    def test_cleared_minors_pass_the_svd_test(self):
        eps = float(np.finfo(float).eps)
        cleared = checked = 0
        for a in conditioning_pool(137):
            n = a.shape[0]
            columns = torus._conditioned_columns(a)
            cleared += int(columns.sum())
            checked += columns.size
            for j in np.flatnonzero(columns):
                s = np.linalg.svd(np.delete(a, j, axis=1), compute_uv=False)
                assert n * eps * s[0] / s[-1] <= torus._MINOR_REL_TOL / 2 * (1 + 1e-6)
        assert 0 < cleared < checked

    def test_partial_hadamard_inputs_are_cleared(self):
        for h in minor_pool(139):
            assert torus._conditioned_columns(h.to_complex()).all()

    def test_overflowing_gram_clears_nothing(self):
        assert not torus._conditioned_columns(1e200 * f3_top2().to_complex()).any()

    def test_eigvalsh_failure_clears_nothing(self, monkeypatch):
        def fail(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        h = drop_last_row(fourier([8]))
        assert not torus._conditioned_columns(h.to_complex()).any()
        assert_bit_equal(completion._minors(h), reference_minors(h))


def close_columns(angle: float) -> TorusMatrix:
    """F_4 without its last row, with column 2 replaced by column 1 turned
    by ``angle * r`` in row r (equal columns at angle 0)."""
    a = fourier([4]).to_complex()[:-1].copy()
    a[:, 1] = a[:, 0] * np.exp(1j * angle * np.arange(3))
    return TorusMatrix.from_complex(a)


class TestIllConditionedNamesFirstColumn:
    # every minor keeping both columns 1 and 2 is (nearly) singular, so the
    # first failing column is 3
    CASES = [
        (0.0, r"^minor without column 3 is numerically singular$"),
        (
            1e-11,
            r"^determinant of minor without column 3: estimated relative error "
            r"\d\.\d{3}e-0\d exceeds 1\.000e-06$",
        ),
    ]

    @pytest.mark.parametrize("angle, message", CASES)
    def test_minor_det(self, angle, message):
        h = close_columns(angle)
        assert minor_det(h, 1) == reference_minors(h)[0]
        assert minor_det(h, 2) == reference_minors(h)[1]
        with pytest.raises(IllConditioned, match=message):
            minor_det(h, 3)
        with pytest.raises(IllConditioned, match=message.replace("3", "4", 1)):
            minor_det(h, 4)

    @pytest.mark.parametrize("call", [complete_row, criteria, modulus_profile])
    @pytest.mark.parametrize("angle, message", CASES)
    def test_completion_calls(self, call, angle, message):
        with pytest.raises(IllConditioned, match=message):
            call(close_columns(angle))

    @pytest.mark.parametrize("first", [1, 2, 3])
    def test_determinant_past_a_double(self, first):
        # well-conditioned minors whose determinants (about 1.7e400) overflow
        a = 1e200 * f3_top2().to_complex()
        with pytest.raises(
            IllConditioned,
            match=rf"^determinant of minor without column {first} is not a finite double$",
        ):
            torus._minor_dets(a, range(first, 4))

    def test_first_failing_column_in_a_later_batch(self, monkeypatch):
        monkeypatch.setattr(torus, "_MINOR_BATCH", 2 * 3 * 3)
        with pytest.raises(IllConditioned, match="without column 3 is"):
            complete_row(close_columns(0.0))


def unnormalised_votes(h: TorusMatrix, tol: float):
    """The modulus and weighted votes as the raw-scale formulas decide them:
    moduli against tol * N^(N/2-1), the weighted test against tol * c with
    c = sum |det H^(j)|^2.  Returns the votes, the moduli and c."""
    n = h.cols
    a = h.to_complex()
    moduli = np.abs(torus._minor_dets(a, range(1, n + 1)))
    scale = n ** (n / 2.0 - 1.0)
    weights = moduli**2
    c = float(weights.sum())
    deviation = spectral_norm((a * weights) @ a.conj().T - c * np.eye(n - 1))
    votes = (
        bool(moduli.max() - moduli.min() <= tol * scale),
        bool(np.abs(moduli - scale).max() <= tol * scale),
        bool(deviation <= tol * c),
    )
    return votes, tuple(float(v) for v in moduli), c


class TestUnitScaleMatchesRawScale:
    """The tests decide on the unit-scale row u = N^(1-N/2) Z; on inputs whose
    raw minors are finite they give the votes of the raw-scale formulas,
    near the tolerance too, and report the same moduli and c."""

    ANGLES = (0.0, 0.05, 1e-5, 1e-7, 3e-9)
    TOLS = (1e-9, 1e-8, 1e-6)

    def test_votes_moduli_and_c(self):
        rng = np.random.default_rng(17)
        seen = set()
        for n in range(3, 25):
            h = float_phased_fourier(n, rng)
            i, j = int(rng.integers(n - 1)), int(rng.integers(n))
            for angle in self.ANGLES:
                matrix = perturb(h, i, j, angle)
                for tol in self.TOLS:
                    votes, moduli, c = unnormalised_votes(matrix, tol)
                    report = criteria(matrix, tol)
                    profile, weighted = report.profile, report.weighted
                    got = (profile.constant, profile.hadamard_value, weighted.passes)
                    assert got == votes, (n, angle, tol)
                    assert profile.moduli == moduli
                    assert weighted.c == c
                    seen.add(votes)
        # the corpus reaches both sides of every tolerance
        assert len(seen) >= 4

    def test_completing_row_is_the_raw_formula(self):
        rng = np.random.default_rng(19)
        for n in range(3, 25):
            h = float_phased_fourier(n, rng)
            minors = torus._minor_dets(h.to_complex(), range(1, n + 1))
            signs = np.array([(-1) ** j for j in range(1, n + 1)], dtype=float)
            want = n ** (1.0 - n / 2.0) * (signs * minors.conj())
            assert_bit_equal(complete_row(h).to_complex()[-1], want)
