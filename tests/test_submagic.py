"""Projection grids: construction from partial Hadamard matrices,
certification, classical points, pre-Latin extraction, completions, the
trace bound, random sampling, and the .pgrid format."""

import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from _helpers import (
    brute_force_commutator,
    exact_randomized_fourier,
    known_commuting_grid,
    reference_grid_report,
    reference_pre_latin,
    take_rows,
)
from hadperm import submagic
from hadperm._linalg import spectral_norms
from hadperm.errors import (
    DegenerateSplit,
    FormatError,
    LimitExceeded,
    NotCommuting,
    NotCompletable,
    NotHadamard,
    NotSubmagic,
    RankError,
)
from hadperm.pperm import PartialPermutation, embed_total, generate_semigroup
from hadperm.prelatin import semigroup_of
from hadperm.submagic import (
    ProjGrid,
    check_grid,
    classical_points,
    complete_2x2_to_4x4,
    complete_commuting,
    complete_last,
    format_pgrid,
    grid_from_hadamard,
    parse_pgrid,
    pre_latin_from_rank_one,
    random_grid,
    read_pgrid,
    sum_bound_check,
)
from hadperm.submagic import _joint_eigensystem
from hadperm.torus import TorusMatrix, fourier, read_phm, tensor

DATA = Path(__file__).resolve().parent.parent / "data"
W3 = np.exp(2j * np.pi / 3)


def pp(*image):
    return PartialPermutation(image)


def proj(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj()) / np.vdot(v, v).real


def f3_top2():
    return take_rows(fourier([3]), 2)


def m2_family():
    a = np.array([[1, 1, 1, 1], [1, 1j, -1, -1j]], dtype=complex)
    return TorusMatrix.from_complex(a)


def pq_grid():
    p = np.array([[1, 0], [0, 0]], dtype=complex)
    z = np.zeros((2, 2), dtype=complex)
    return ProjGrid([[p, z], [z, p]])


def two_row(values):
    values = np.asarray(values, dtype=complex)
    return TorusMatrix.from_complex(np.vstack([np.ones_like(values), values]))


def balanced_two_row(theta):
    """Partial Hadamard two-row matrix whose grid commutes only when
    theta is a multiple of pi / 2."""
    return two_row(np.array([1, np.exp(1j * theta), -1, -np.exp(1j * theta)]))


def peak_bytes(fn, *args):
    """tracemalloc peak of one call, counted from the call's start."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGridFromHadamard:
    def test_f2_grid_is_magic(self):
        grid = grid_from_hadamard(fourier([2]))
        expected = np.array(
            [
                [proj([1, 1]), proj([1, -1])],
                [proj([1, -1]), proj([1, 1])],
            ]
        )
        assert np.abs(grid.blocks - expected).max() <= 1e-15
        assert check_grid(grid, 1e-10).magic

    def test_diagonal_blocks_project_onto_ones(self):
        rng = np.random.default_rng(43)
        h = take_rows(exact_randomized_fourier(4, rng), 3)
        grid = grid_from_hadamard(h)
        ones = proj(np.ones(4))
        for i in range(3):
            assert np.abs(grid.blocks[i, i] - ones).max() <= 1e-12

    def test_f3_top_rows_off_diagonal_blocks(self):
        grid = grid_from_hadamard(f3_top2())
        assert np.abs(grid.blocks[0, 1] - proj([1, W3**2, W3])).max() <= 1e-12
        assert np.abs(grid.blocks[1, 0] - proj([1, W3, W3**2])).max() <= 1e-12

    def test_rejects_non_hadamard(self):
        bad = TorusMatrix.from_complex(np.ones((2, 2), dtype=complex))
        with pytest.raises(NotHadamard):
            grid_from_hadamard(bad)

    def test_always_submagic(self):
        rng = np.random.default_rng(47)
        for n in (3, 4, 5):
            m = int(rng.integers(1, n + 1))
            grid = grid_from_hadamard(take_rows(exact_randomized_fourier(n, rng), m))
            report = check_grid(grid, 1e-10)
            assert report.submagic

    @pytest.mark.parametrize("kind", ["exact", "float", "one_row"])
    def test_blocks_match_per_block_reference(self, kind):
        rng = np.random.default_rng(53)
        if kind == "float":
            rows = np.exp(2j * np.pi * rng.random(4))[:, None]
            cols = np.exp(2j * np.pi * rng.random(5))
            h = TorusMatrix.from_complex(rows * fourier([5]).to_complex()[:4] * cols)
        else:
            h = take_rows(exact_randomized_fourier(6, rng), 1 if kind == "one_row" else 4)
        a = h.to_complex()
        m, n = a.shape
        reference = np.empty((m, m, n, n), dtype=complex)
        for i in range(m):
            for j in range(m):
                xi = a[i] / a[j]
                reference[i, j] = np.outer(xi, xi.conj()) / n
        assert np.array_equal(grid_from_hadamard(h).blocks, reference)


def divided_blocks(a):
    """The rank-one blocks xi ⊗ conj(xi) / N as numpy's complex division by
    N gives them."""
    xi = a[:, None, :] / a[None, :, :]
    return xi[..., :, None] * xi.conj()[..., None, :] / a.shape[1]


def deleted_row_pool(seed):
    """(N-1) x N deleted-row Fourier arrays with random row and column phases,
    N = 3..30, each followed by its twin with one entry turned by 0.2 rad."""
    rng = np.random.default_rng(seed)
    for n in range(3, 31):
        rows = np.exp(2j * np.pi * rng.random(n - 1))[:, None]
        cols = np.exp(2j * np.pi * rng.random(n))
        a = rows * fourier([n]).to_complex()[1:] * cols
        yield a
        twin = a.copy()
        twin[rng.integers(n - 1), rng.integers(n)] *= np.exp(0.2j)
        yield twin


def signed_zero_arrays(seed, count=200):
    """Random M x N arrays in which about a fifth of the real and of the
    imaginary parts are +0.0 or -0.0 (no entry is zero in both)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        shape = tuple(int(k) for k in rng.integers(1, 6, size=2))
        parts = rng.normal(size=(2, *shape))
        zeros = rng.choice([0.0, -0.0], size=parts.shape)
        parts = np.where(rng.random(parts.shape) < 0.2, zeros, parts)
        both = (parts[0] == 0) & (parts[1] == 0)
        parts[0][both] = 1.0
        yield parts[0] + 1j * parts[1]


class TestRankOneScaling:
    """The grid is scaled by s - 0i with s = 1/N instead of divided by N,
    and must keep numpy's division bits, signed zeros included."""

    def test_shipped_inputs(self):
        for path in sorted(DATA.glob("*.phm")):
            a = read_phm(path).to_complex()
            assert submagic._rank_one_blocks(a).tobytes() == divided_blocks(a).tobytes(), path

    def test_deleted_row_fourier_and_twins(self):
        for a in deleted_row_pool(seed=61):
            assert submagic._rank_one_blocks(a).tobytes() == divided_blocks(a).tobytes()

    @pytest.mark.parametrize("n", range(1, 33))
    def test_fourier_grids(self, n):
        h = fourier([n])
        assert grid_from_hadamard(h).blocks.tobytes() == divided_blocks(h.to_complex()).tobytes()

    def test_tensor_products(self):
        for orders in ((2, 3), (4, 4), (2, 2, 3), (3, 5)):
            h = tensor(fourier([orders[0]]), fourier(list(orders[1:])))
            assert grid_from_hadamard(h).blocks.tobytes() == divided_blocks(h.to_complex()).tobytes()

    def test_arrays_rich_in_signed_zeros(self):
        for a in signed_zero_arrays(seed=67):
            assert submagic._rank_one_blocks(a).tobytes() == divided_blocks(a).tobytes()

    @pytest.mark.parametrize("tiny", [1e-300, -1e-300, 5e-324, -5e-324])
    def test_tiny_components_take_the_division(self, tiny):
        a = np.array([[1, 1], [1, complex(-1, tiny)]])
        assert submagic._rank_one_blocks(a).tobytes() == divided_blocks(a).tobytes()

    def test_the_guard_is_needed(self):
        # (-1 - 5e-324 i) / 2 has imaginary part -0.0; times (1/2 - 0i) it is +0.0
        a = np.array([[1, 1], [1, complex(-1, -5e-324)]])
        xi = a[:, None, :] / a[None, :, :]
        product = xi[..., :, None] * xi.conj()[..., None, :] * complex(0.5, -0.0)
        assert product.tobytes() != divided_blocks(a).tobytes()
        assert submagic._rank_one_blocks(a).tobytes() == divided_blocks(a).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 24, 50])
    def test_numpy_division_by_n_is_the_product(self, n):
        # every sign pattern of zero parts, against nonzero and zero partners
        parts = [0.0, -0.0, 1.5, -1.5]
        z = np.array([complex(re, im) for re in parts for im in parts])
        assert (z / n).tobytes() == (z * complex(1.0 / n, -0.0)).tobytes()


class TestProjGridOwnership:
    def test_constructor_copies_outside_input(self):
        arr = np.zeros((1, 1, 2, 2), dtype=complex)
        grid = ProjGrid(arr)
        arr[0, 0, 0, 0] = 1.0
        assert grid.blocks[0, 0, 0, 0] == 0.0
        assert arr.flags.writeable

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(1, -np.inf)]
    )
    def test_constructor_rejects_non_finite_blocks(self, bad):
        blocks = np.zeros((2, 2, 3, 3), dtype=complex)
        blocks[1, 0, 2, 1] = bad
        blocks[1, 1, 0, 0] = bad
        with pytest.raises(ValueError, match=r"block \(2,1\) has a non-finite entry"):
            ProjGrid(blocks)

    def test_every_builder_returns_read_only_blocks(self):
        f3 = grid_from_hadamard(fourier([3]))
        square = random_grid(2, 3, 0)
        grids = [
            ProjGrid(np.zeros((1, 1, 2, 2))),
            f3,
            grid_from_hadamard(f3_top2()),
            complete_last(grid_from_hadamard(f3_top2())),
            complete_commuting(grid_from_hadamard(m2_family()), 4),
            complete_2x2_to_4x4(square),
            random_grid(1, 3, 0),
            square,
            parse_pgrid(format_pgrid(f3)),
        ]
        for grid in grids:
            assert grid.blocks.dtype == complex
            assert grid.blocks.shape == (grid.size, grid.size, grid.dim, grid.dim)
            assert not grid.blocks.flags.writeable
            with pytest.raises(ValueError):
                grid.blocks[0, 0, 0, 0] = 1.0

    def test_grid_from_hadamard_does_not_copy_its_blocks(self):
        # a copy on construction would hold the blocks twice, about 2x
        h = fourier([16])
        block_bytes = 16 * 16 * 16 * 16 * 16
        assert peak_bytes(grid_from_hadamard, h) < 1.5 * block_bytes


class TestCheckGrid:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_full_fourier_grids(self, n):
        report = check_grid(grid_from_hadamard(fourier([n])), 1e-10)
        assert report.submagic and report.magic and report.commuting

    def test_zero_grid_submagic_not_magic(self):
        grid = ProjGrid(np.zeros((2, 2, 3, 3), dtype=complex))
        report = check_grid(grid)
        assert report.submagic and not report.magic

    def test_generic_two_row_grid_not_commuting(self):
        # second row sums to zero (partial Hadamard) but its squares do not,
        # which is exactly the commutativity obstruction for two-row grids
        values = np.array([1, np.exp(0.7j), -1, -np.exp(0.7j)])
        grid = grid_from_hadamard(two_row(values))
        report = check_grid(grid)
        assert report.submagic and not report.commuting
        assert report.worst_violations["commutator"] > 1e-3

    def test_magic_implies_submagic(self):
        rng = np.random.default_rng(53)
        for seed in range(5):
            grid = random_grid(2, 4, seed)
            report = check_grid(grid)
            assert report.submagic
            assert not report.magic or report.submagic

    def test_overflowing_products_certify_nothing(self):
        # finite blocks near 1e200 whose products overflow: inf - inf is NaN,
        # and no defect that overflows may pass for 0.0 or for commuting
        blocks = 1e200 * np.random.default_rng(3).standard_normal((2, 2, 2, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            report = check_grid(ProjGrid(blocks))
        assert not (report.submagic or report.magic or report.commuting)
        for key in ("projection", "row_orthogonality", "column_orthogonality", "commutator"):
            assert not np.isfinite(report.worst_violations[key])

    def test_violation_reported(self):
        almost = np.zeros((1, 1, 2, 2), dtype=complex)
        almost[0, 0] = np.array([[0.5, 0], [0, 0]])
        report = check_grid(ProjGrid(almost))
        assert not report.submagic
        assert report.worst_violations["projection"] == pytest.approx(0.25)


class TestCommutatorIsExact:
    """check_grid's commutator is the brute-force maximum over all pairs of
    blocks at every grid size."""

    @pytest.mark.parametrize("n", [10, 12])
    def test_fourier_grids_past_64_blocks(self, n):
        grid = grid_from_hadamard(fourier([n]))
        assert grid.size**2 > 64
        report = check_grid(grid)
        assert report.commuting
        assert report.worst_violations["commutator"] == brute_force_commutator(grid)

    def test_non_commuting_grid_past_64_blocks(self):
        row = two_row(np.array([1, np.exp(0.7j), -1, -np.exp(0.7j)]))
        grid = grid_from_hadamard(tensor(row, fourier([5])))
        assert grid.size**2 == 100
        report = check_grid(grid)
        assert not report.commuting
        assert report.worst_violations["commutator"] == brute_force_commutator(grid)

    @pytest.mark.parametrize("m", [1, 2])
    def test_random_grids(self, m):
        for seed in range(10):
            grid = random_grid(m, 4, seed)
            expected = brute_force_commutator(grid)
            assert check_grid(grid).worst_violations["commutator"] == expected


class TestPairScanLimit:
    """Pair scans past ``_PAIR_SCAN_LIMIT`` multiply-adds are refused before
    anything is allocated."""

    @staticmethod
    def zero_grid(m, d):
        # every block is one shared zero array, so the grid takes d^2 entries
        zero = np.zeros((1, 1, d, d), dtype=complex)
        return submagic._trusted(np.broadcast_to(zero, (m, m, d, d)))

    def test_check_grid(self):
        grid = self.zero_grid(40, 40)
        tracemalloc.start()
        try:
            with pytest.raises(
                LimitExceeded,
                match=r"^pair scan of a 40 x 40 grid of 40 x 40 blocks needs "
                r"8\.19e\+10 multiply-adds, above the limit 2\.00e\+10$",
            ):
                check_grid(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_fallback_scan_of_the_eigenbasis(self):
        ops = self.zero_grid(40, 40).blocks.reshape(40 * 40, 40, 40)
        with pytest.raises(LimitExceeded, match="40 x 40 grid of 40 x 40 blocks"):
            submagic._require_commuting(ops, 40, 1e-9)

    @pytest.mark.parametrize("n, fits", [(16, True), (28, True), (40, False), (64, False)])
    def test_fourier_grid_sizes(self, n, fits):
        if fits:
            submagic._require_pair_scan_fits(n, n)
        else:
            with pytest.raises(LimitExceeded):
                submagic._require_pair_scan_fits(n, n)


class TestGridBytesLimit:
    """Grids past ``_GRID_BYTES_LIMIT`` bytes of blocks are refused before
    they are built."""

    @pytest.mark.parametrize("n, fits", [(24, True), (40, True), (50, True), (51, False)])
    def test_fourier_grid_sizes(self, n, fits):
        if fits:
            submagic._require_grid_fits(n, n)
        else:
            with pytest.raises(LimitExceeded):
                submagic._require_grid_fits(n, n)

    def test_grid_from_hadamard_at_the_limit(self, monkeypatch):
        # the grid of F_4 has 16 blocks of 4 x 4 complex entries: 4096 bytes
        monkeypatch.setattr(submagic, "_GRID_BYTES_LIMIT", 4096)
        assert grid_from_hadamard(fourier([4])).size == 4
        monkeypatch.setattr(submagic, "_GRID_BYTES_LIMIT", 4095)
        with pytest.raises(
            LimitExceeded,
            match=r"^a 4 x 4 grid of 4 x 4 blocks exceeds the limit of 4\.10e\+03 bytes$",
        ):
            grid_from_hadamard(fourier([4]))

    def test_complete_commuting_at_the_limit(self, monkeypatch):
        grid = grid_from_hadamard(fourier([2]))
        # a 4 x 4 grid of 2 x 2 blocks: 1024 bytes
        monkeypatch.setattr(submagic, "_GRID_BYTES_LIMIT", 1024)
        assert complete_commuting(grid, 4).size == 4
        monkeypatch.setattr(submagic, "_GRID_BYTES_LIMIT", 1023)
        with pytest.raises(LimitExceeded, match="a 4 x 4 grid of 2 x 2 blocks"):
            complete_commuting(grid, 4)

    def test_complete_2x2_to_4x4_at_the_limit(self, monkeypatch):
        grid = random_grid(2, 2, 0)
        # a 4 x 4 grid of 2 x 2 blocks: 1024 bytes
        monkeypatch.setattr(submagic, "_GRID_BYTES_LIMIT", 1024)
        assert complete_2x2_to_4x4(grid).size == 4
        monkeypatch.setattr(submagic, "_GRID_BYTES_LIMIT", 1023)
        checked = []
        monkeypatch.setattr(submagic, "check_grid", lambda *args: checked.append(args))
        with pytest.raises(LimitExceeded, match="a 4 x 4 grid of 2 x 2 blocks"):
            complete_2x2_to_4x4(grid)
        assert checked == []

    def test_complete_commuting_refuses_before_the_eigenbasis(self):
        grid = grid_from_hadamard(fourier([2]))
        tracemalloc.start()
        try:
            with pytest.raises(LimitExceeded, match="a 100000 x 100000 grid"):
                complete_commuting(grid, 100000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16


class TestPairScanMatchesReference:
    """All seven defects and the three flags of check_grid equal the dense
    reference formulas exactly.  The scan forms each pair product once, in
    other batch shapes than the reference, so this also guards that numpy
    computes every product and SVD the same whatever the batch."""

    @staticmethod
    def assert_matches(grid, tol=1e-9):
        report = check_grid(grid, tol)
        worst, submagic, magic, commuting = reference_grid_report(grid, tol)
        assert list(report.worst_violations) == list(worst)
        assert report.worst_violations == worst
        assert (report.submagic, report.magic, report.commuting) == (
            submagic, magic, commuting
        )
        return report

    # not_orthogonal.phm is not partial Hadamard even at 0.1 and has no grid
    @pytest.mark.parametrize(
        "name",
        sorted(
            p.name for p in DATA.iterdir()
            if p.suffix in (".phm", ".pgrid") and p.name != "not_orthogonal.phm"
        ),
    )
    def test_data_grids(self, name):
        path = DATA / name
        if path.suffix == ".pgrid":
            grid = read_pgrid(path)
        else:
            grid = grid_from_hadamard(read_phm(path), tol=0.1)
        self.assert_matches(grid)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_fourier_grids(self, n):
        self.assert_matches(grid_from_hadamard(fourier([n])))

    @pytest.mark.parametrize("m", range(1, 6))
    def test_known_commuting_grids(self, m):
        for d in (1, 3, 8):
            for seed in (0, 1):
                grid, _ = known_commuting_grid(m, d, seed)
                assert self.assert_matches(grid).commuting

    @pytest.mark.parametrize("m", [1, 2])
    def test_random_grids(self, m):
        for seed in range(10):
            self.assert_matches(random_grid(m, 1 + seed % 5, seed))

    @pytest.mark.parametrize("theta", [0.3, 0.7, 1.1, 2.0])
    def test_balanced_non_commuting_two_row_grids(self, theta):
        row = balanced_two_row(theta)
        for h in (row, tensor(row, fourier([3]))):
            report = self.assert_matches(grid_from_hadamard(h))
            assert report.submagic and not report.commuting

    def test_perturbed_grids_fail_orthogonality(self):
        # loose-certified grids of perturbed inputs: the orthogonality
        # maxima are far above rounding and must still agree exactly
        rng = np.random.default_rng(7)
        for n in (4, 5, 6):
            a = take_rows(exact_randomized_fourier(n, rng), n - 1).to_complex().copy()
            a[0, 1] *= np.exp(0.05j)
            report = self.assert_matches(
                grid_from_hadamard(TorusMatrix.from_complex(a), tol=0.1)
            )
            assert report.worst_violations["row_orthogonality"] > 1e-3
            assert report.worst_violations["column_orthogonality"] > 1e-3

    @pytest.mark.parametrize("orders", [[16], [2, 8]])
    def test_benchmark_size_grids(self, orders):
        # d = 16, the largest shape the grid benchmark certifies
        self.assert_matches(grid_from_hadamard(fourier(orders)))

    def test_tiny_scale_grid(self):
        # pair products near 1e-170 square to below the smallest float
        blocks = 1e-85 * np.random.default_rng(11).standard_normal((2, 2, 3, 3))
        report = self.assert_matches(ProjGrid(blocks))
        for key in ("row_orthogonality", "column_orthogonality", "commutator"):
            assert 1e-172 < report.worst_violations[key] < 1e-167

    def test_check_grid_memory_stays_small(self):
        # the dense orthogonality stack of all same-row and same-column
        # products alone took 33.6 MB at F_16
        grid = grid_from_hadamard(fourier([16]))
        assert peak_bytes(check_grid, grid) < 8e6


@st.composite
def matrix_stacks(draw):
    """Small complex stacks with zero matrices, exact ties, a pair whose
    Frobenius order is the reverse of its spectral order (c I against a
    rank-one matrix of spectral norm between c and c sqrt(d)), and scales
    whose squares under- or overflow."""
    n = draw(st.integers(0, 6))
    d = draw(st.integers(1, 4))
    parts = hnp.arrays(np.float64, (n, d, d), elements=st.floats(-4, 4))
    mats = draw(parts) + 1j * draw(parts)
    mats[draw(hnp.arrays(bool, n))] = 0
    if n >= 2 and draw(st.booleans()):
        mats[-1] = mats[0]
    if draw(st.booleans()):
        c = draw(st.floats(0.25, 4))
        peaked = np.zeros((d, d), dtype=complex)
        peaked[0, -1] = c * (1 + np.sqrt(d)) / 2
        mats = np.concatenate([mats, [c * np.eye(d), peaked]])
    return mats * draw(st.sampled_from([1.0, 1e-85, 1e-160, 1e-300, 1e150]))


class TestSpectralSelection:
    """The maxima take exact SVDs only where they can set the maximum, and
    still give the same float as an SVD of every matrix."""

    @given(matrix_stacks())
    @example(np.zeros((0, 3, 3), dtype=complex))
    @example(np.zeros((5, 2, 2), dtype=complex))
    @example(np.eye(3, dtype=complex)[None])
    @settings(max_examples=300, deadline=None)
    def test_selection_is_exact(self, mats):
        expected = float(spectral_norms(mats).max(initial=0.0))
        assert submagic._max_spectral_of(mats) == expected

    @pytest.fixture
    def svd_inputs(self, monkeypatch):
        counts = []
        svd = submagic.spectral_norms

        def counted(batch):
            counts.append(len(batch))
            return svd(batch)

        monkeypatch.setattr(submagic, "spectral_norms", counted)
        return counts

    def test_zero_matrices_take_no_svd(self, svd_inputs):
        assert submagic._max_spectral_of(np.zeros((4, 3, 3), dtype=complex)) == 0.0
        assert check_grid(ProjGrid(np.zeros((3, 3, 2, 2)))).worst_violations[
            "commutator"
        ] == 0.0
        # only the three row sums and three column sums 0 - I reach the SVD
        assert sum(svd_inputs) == 6

    def test_svd_budget_on_f16(self, svd_inputs):
        # an SVD of every matrix whose Frobenius norm exceeds the running
        # maximum, in scan order, took 1,133
        check_grid(grid_from_hadamard(fourier([16])))
        assert sum(svd_inputs) <= 560


class TestPreLatinFromRankOne:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_fourier_square_is_cyclic(self, n):
        grid = grid_from_hadamard(fourier([n]))
        square = pre_latin_from_rank_one(grid, n, tol=1e-10)
        derived = tuple(tuple(((j - i) % n) + 1 for j in range(n)) for i in range(n))
        assert square.entries == derived

    def test_m2_family_square(self):
        grid = grid_from_hadamard(m2_family())
        square = pre_latin_from_rank_one(grid, 4)
        assert square.entries == ((1, 2), (3, 1))
        assert square.alphabet == 4

    def test_single_cell(self):
        grid = grid_from_hadamard(TorusMatrix.from_complex(np.array([[1.0, 1.0]])))
        square = pre_latin_from_rank_one(grid, 1)
        assert square.entries == ((1,),)

    def test_not_commuting_raises(self):
        values = np.array([1, np.exp(0.7j), -1, -np.exp(0.7j)])
        grid = grid_from_hadamard(two_row(values))
        with pytest.raises(NotCommuting):
            pre_latin_from_rank_one(grid, 4)

    def test_rank_error(self):
        eye = np.eye(2, dtype=complex)[None, None]
        with pytest.raises(RankError):
            pre_latin_from_rank_one(ProjGrid(eye), 2)

    def test_rank_error_text_stays_short_on_huge_blocks(self):
        grid = ProjGrid(1e200 * grid_from_hadamard(fourier([3])).blocks)
        with pytest.raises(RankError, match=r"top eigenvalue 1e\+200, ") as err:
            pre_latin_from_rank_one(grid, 3)
        assert len(str(err.value)) < 120

    @pytest.mark.parametrize("scale", [1e300, 1.7e308])
    def test_rank_error_on_huge_blocks(self, scale):
        # at 1.7e308 hermitize overflows and eigvalsh returns NaN, which must
        # fail the rank test as the finite eigenvalues at 1e300 do
        grid = ProjGrid(np.full((1, 1, 2, 2), scale))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(RankError):
            pre_latin_from_rank_one(grid, 2)

    def test_rank_error_on_negative_eigenvalue(self):
        # top two eigenvalues look rank-one (1 and 0); the negative one must
        # still disqualify the block
        block = np.diag([1.0, 0.0, -1.0]).astype(complex)
        with pytest.raises(RankError):
            pre_latin_from_rank_one(ProjGrid(block[None, None]), 3)

    def test_round_trip_reproduces_blocks(self):
        # rebuild each block from the square and the first-seen image vectors
        for h in (fourier([3]), fourier([4]), m2_family()):
            grid = grid_from_hadamard(h)
            square = pre_latin_from_rank_one(grid, grid.dim)
            reps = {}
            for i in range(grid.size):
                for j in range(grid.size):
                    label = square.entries[i][j]
                    if label not in reps:
                        w, v = np.linalg.eigh(grid.blocks[i, j])
                        reps[label] = v[:, -1]
            for i in range(grid.size):
                for j in range(grid.size):
                    rebuilt = proj(reps[square.entries[i][j]])
                    assert np.abs(rebuilt - grid.blocks[i, j]).max() <= 1e-9

    def test_semigroup_matches_classical_points(self):
        for h in (fourier([3]), m2_family()):
            grid = grid_from_hadamard(h)
            square = pre_latin_from_rank_one(grid, grid.dim)
            points = classical_points(grid)
            assert semigroup_of(square) == generate_semigroup(list(points))


class TestPreLatinMatchesReference:
    """pre_latin_from_rank_one gives the same entries and alphabet as the
    clustering reference in tests/_helpers.py on commuting rank-one grids,
    and raises the same error type where the reference raises."""

    @staticmethod
    def assert_matches(grid, tol):
        square = pre_latin_from_rank_one(grid, grid.dim, tol=tol)
        expected = reference_pre_latin(grid, grid.dim, tol=tol)
        assert (square.entries, square.alphabet) == (expected.entries, expected.alphabet)

    @staticmethod
    def assert_same_error(grid, n_target, tol=1e-9):
        errors = []
        for fn in (pre_latin_from_rank_one, reference_pre_latin):
            with pytest.raises((NotCommuting, RankError)) as err:
                fn(grid, n_target, tol=tol)
            errors.append(err.type)
        assert errors[0] is errors[1]

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize(
        "name", sorted(p.name for p in DATA.glob("*.phm") if p.name != "not_orthogonal.phm")
    )
    def test_data_grids(self, name, tol):
        grid = grid_from_hadamard(read_phm(DATA / name), tol=0.1)
        if check_grid(grid, tol).commuting:
            self.assert_matches(grid, tol)
        else:
            self.assert_same_error(grid, grid.dim, tol)

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_fourier_grids(self, tol):
        for orders in [[n] for n in range(1, 13)] + [[2, 2], [2, 3], [3, 3], [2, 2, 2]]:
            self.assert_matches(grid_from_hadamard(fourier(orders)), tol)

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_randomized_fourier_row_subsets(self, tol):
        rng = np.random.default_rng(71)
        for n in range(1, 13):
            for _ in range(3):
                h = take_rows(exact_randomized_fourier(n, rng), int(rng.integers(1, n + 1)))
                self.assert_matches(grid_from_hadamard(h), tol)

    def test_same_error_types(self):
        self.assert_same_error(ProjGrid(np.eye(2, dtype=complex)[None, None]), 2)
        self.assert_same_error(
            ProjGrid(np.diag([1.0, 0.0, -1.0]).astype(complex)[None, None]), 3
        )
        self.assert_same_error(pq_grid(), 2)
        for theta in (0.3, 0.7, 1.1, 2.0):
            self.assert_same_error(grid_from_hadamard(balanced_two_row(theta)), 4)


class TestClassicalPoints:
    def test_f2_grid(self):
        points = classical_points(grid_from_hadamard(fourier([2])))
        assert points == Counter({pp(1, 2): 1, pp(2, 1): 1})

    def test_diagonal_identity_grid(self):
        d = 3
        blocks = np.zeros((2, 2, d, d), dtype=complex)
        blocks[0, 0] = np.eye(d)
        blocks[1, 1] = np.eye(d)
        points = classical_points(ProjGrid(blocks))
        assert points == Counter({pp(1, 2): d})

    def test_m2_family_points(self):
        points = classical_points(grid_from_hadamard(m2_family()))
        assert points == Counter(
            {pp(1, 2): 1, pp(2, 0): 1, pp(0, 1): 1, pp(0, 0): 1}
        )

    def test_multiplicities_sum_to_dimension(self):
        for h in (fourier([4]), m2_family(), f3_top2()):
            grid = grid_from_hadamard(h)
            points = classical_points(grid)
            assert sum(points.values()) == grid.dim

    def test_regrouping_reproduces_blocks(self):
        grid = grid_from_hadamard(m2_family())
        vectors, sigmas = _joint_eigensystem(grid, 1e-9)
        m, d = grid.size, grid.dim
        rebuilt = np.zeros_like(np.asarray(grid.blocks))
        for c, sigma in enumerate(sigmas):
            v = vectors[:, c]
            for j in range(1, m + 1):
                i = sigma(j)
                if i is not None:
                    rebuilt[i - 1, j - 1] += np.outer(v, v.conj())
        assert np.abs(rebuilt - grid.blocks).max() <= 1e-9

    def test_not_commuting_raises(self):
        values = np.array([1, np.exp(0.7j), -1, -np.exp(0.7j)])
        grid = grid_from_hadamard(two_row(values))
        with pytest.raises(NotCommuting):
            classical_points(grid)

    @pytest.mark.parametrize("n, scale", [(3, 1e200), (2, 1e308), (3, 1e308), (4, 1e308)])
    def test_overflowing_grid_is_not_commuting(self, n, scale):
        # products overflow, so the commutator and (at 1e308) the eigenvector
        # residuals are NaN, and at 1e308 on F_3 and F_4 eigh does not
        # converge; NotCommuting is raised exactly when check_grid reports
        # the grid non-commuting
        grid = ProjGrid(scale * grid_from_hadamard(fourier([n])).blocks)
        with np.errstate(over="ignore", invalid="ignore"):
            report = check_grid(grid)
            assert not report.commuting
            assert np.isnan(report.worst_violations["commutator"])
            with pytest.raises(NotCommuting, match="largest commutator nan"):
                classical_points(grid)
            with pytest.raises(NotCommuting, match="largest commutator nan"):
                complete_commuting(grid, 4)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("d", [1, 3, 8, 12])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_known_answer_grids(self, m, d, seed):
        grid, points = known_commuting_grid(m, d, seed)
        assert classical_points(grid) == points
        n = m + max(sigma.defect for sigma in points)
        full = complete_commuting(grid, n)
        report = check_grid(full)
        assert report.magic and report.commuting
        assert np.array_equal(full.blocks[:m, :m], grid.blocks)

    def test_non_projection_blocks_degenerate(self):
        # commuting (scalar) blocks whose eigenvalues are not 0/1: no joint
        # basis classifies, so every seeded attempt fails and the retries run out
        blocks = np.zeros((2, 2, 2, 2), dtype=complex)
        blocks[0, 0] = 0.5 * np.eye(2)
        blocks[1, 1] = 0.5 * np.eye(2)
        with pytest.raises(DegenerateSplit):
            classical_points(ProjGrid(blocks))

    @pytest.mark.parametrize(
        "blocks, line",
        [([[[[1]], [[1]]], [[[0]], [[0]]]], "row"), ([[[[1]], [[0]]], [[[1]], [[0]]]], "column")],
    )
    def test_vector_fixed_twice_in_a_line_is_not_submagic(self, blocks, line):
        # one joint eigenvector fixed by both blocks of row 1 (or of column
        # 1 in the transpose) is no partial permutation's point
        grid = ProjGrid(blocks)
        message = f"{line} 1 fixes eigenvector 1 under several blocks"
        with pytest.raises(NotSubmagic, match=message):
            classical_points(grid)
        with pytest.raises(NotSubmagic, match=message):
            complete_commuting(grid, 3)

    def test_integer_eigenvalues_other_than_0_1_degenerate(self):
        # eigenvalues 2 and -1 are integers but not 0/1: neither grid has
        # projection blocks, so no joint basis classifies
        blocks = np.zeros((2, 2, 2, 2), dtype=complex)
        blocks[0, 0] = 2 * np.eye(2)
        blocks[1, 1] = np.eye(2)
        with pytest.raises(DegenerateSplit):
            classical_points(ProjGrid(blocks))
        with pytest.raises(DegenerateSplit):
            complete_commuting(ProjGrid(np.diag([1.0, -1.0])[None, None]), 2)


class TestCommutationFromTheBasis:
    """The joint eigenbasis certifies commutation from its residuals and
    runs the exact pair scan only when its bound exceeds ``tol``."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        scan = submagic._pair_defects

        def counted(*args):
            calls.append(args)
            return scan(*args)

        monkeypatch.setattr(submagic, "_pair_defects", counted)
        return calls

    @pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 2.0])
    def test_not_commuting_exactly_above_tol(self, factor):
        # a grid whose blocks are all 0 or I commutes up to noise**2, too
        # little for cls_tol = 1e4 * tol to admit its residuals of order
        # noise: those raise DegenerateSplit, which is not NotCommuting
        rng = np.random.default_rng(73)
        outcomes = Counter()
        for m in (2, 3, 4, 5):
            for d in (3, 8, 12):
                for noise in (1e-7, 1e-5):
                    grid, _ = known_commuting_grid(m, d, int(rng.integers(1000)))
                    g = rng.standard_normal(grid.blocks.shape) * (1 + 1j)
                    perturbed = ProjGrid(grid.blocks + noise * (g + g.conj().swapaxes(-1, -2)))
                    exact = brute_force_commutator(perturbed)
                    try:
                        classical_points(perturbed, tol=factor * exact)
                        outcome = "classified"
                    except (NotCommuting, DegenerateSplit) as exc:
                        outcome = type(exc).__name__
                    assert (outcome == "NotCommuting") == (exact > factor * exact)
                    outcomes[outcome] += 1
        assert outcomes["NotCommuting" if factor < 1 else "classified"] >= 20

    def test_chain_scans_once(self, scans):
        grid = grid_from_hadamard(take_rows(fourier([2, 4]), 3))
        assert check_grid(grid).commuting
        square = pre_latin_from_rank_one(grid, grid.dim)
        points = classical_points(grid)
        full = complete_commuting(grid, grid.dim)
        assert len(scans) == 1
        assert semigroup_of(square) == generate_semigroup(list(points))
        assert check_grid(full).magic

    def test_fallback_scan_below_the_margin(self, scans):
        grid = grid_from_hadamard(take_rows(fourier([2, 4]), 3))
        commuting = check_grid(grid, 1e-15).commuting
        del scans[:]
        if commuting:
            classical_points(grid, tol=1e-15)
        else:
            with pytest.raises(NotCommuting):
                classical_points(grid, tol=1e-15)
        assert len(scans) == 1


class TestCompleteLast:
    def test_f3_top_rows(self):
        grid = grid_from_hadamard(f3_top2())
        full = complete_last(grid)
        assert full.size == 3
        assert np.abs(full.blocks[0, 2] - proj([1, W3, W3**2])).max() <= 1e-12
        assert np.abs(full.blocks[1, 2] - proj([1, W3**2, W3])).max() <= 1e-12
        assert check_grid(full, 1e-8).magic

    def test_single_projection(self):
        rng = np.random.default_rng(59)
        g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        q, _ = np.linalg.qr(g)
        p = q @ q.conj().T
        full = complete_last(ProjGrid(p[None, None]))
        eye = np.eye(4)
        assert np.array_equal(full.blocks[0, 0], p)
        assert np.abs(full.blocks[0, 1] - (eye - p)).max() <= 1e-15
        assert np.abs(full.blocks[1, 1] - p).max() <= 1e-12
        assert check_grid(full, 1e-9).magic

    def test_overflowing_corner_not_completable(self):
        # blocks near 1e200: the corner's square overflows and its defect is NaN
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NotCompletable, match="not a projection") as err:
                complete_last(ProjGrid(np.full((2, 2, 2, 2), 1e200)))
        assert np.isnan(err.value.witness)

    def test_pq_counterexample_not_completable(self):
        with pytest.raises(NotCompletable) as err:
            complete_last(pq_grid())
        # corner is 2p - 1, whose idempotency defect has norm 2
        assert err.value.witness == pytest.approx(2.0)

    def test_top_left_bit_exact_and_magic(self):
        rng = np.random.default_rng(61)
        for n in (3, 4, 5):
            grid = grid_from_hadamard(
                TorusMatrix.from_complex(
                    exact_randomized_fourier(n, rng).to_complex()[:-1]
                )
            )
            full = complete_last(grid, tol=1e-9)
            assert np.array_equal(full.blocks[: n - 1, : n - 1], grid.blocks)
            assert check_grid(full, 1e-8).magic


class TestCompleteCommuting:
    def test_m2_family_to_four(self):
        grid = grid_from_hadamard(m2_family())
        full = complete_commuting(grid, 4)
        report = check_grid(full)
        assert report.magic and report.commuting
        assert np.array_equal(full.blocks[:2, :2], grid.blocks)

    def test_magic_grid_returned_unchanged(self):
        grid = grid_from_hadamard(fourier([3]))
        same = complete_commuting(grid, 3)
        assert same == grid

    def test_zero_grid_not_completable(self):
        grid = ProjGrid(np.zeros((2, 2, 1, 1), dtype=complex))
        with pytest.raises(NotCompletable) as err:
            complete_commuting(grid, 3)
        assert err.value.witness == PartialPermutation.empty(2)

    def test_zero_grid_completes_with_enough_room(self):
        grid = ProjGrid(np.zeros((2, 2, 1, 1), dtype=complex))
        full = complete_commuting(grid, 4)
        assert check_grid(full).magic

    def test_points_embed(self):
        grid = grid_from_hadamard(m2_family())
        inner = classical_points(grid)
        outer = classical_points(complete_commuting(grid, 4))
        assert outer == Counter(
            {embed_total(s, 4): mult for s, mult in inner.items()}
        )

    def test_target_too_small(self):
        grid = grid_from_hadamard(fourier([3]))
        with pytest.raises(ValueError):
            complete_commuting(grid, 2)


class TestComplete2x2:
    def test_pq_instance_pattern(self):
        full = complete_2x2_to_4x4(pq_grid())
        p = np.array([[1, 0], [0, 0]], dtype=complex)
        z = np.array([[0, 0], [0, 1]], dtype=complex)
        report = check_grid(full, 1e-12)
        assert report.magic
        for i in range(4):
            assert np.array_equal(full.blocks[i, i], p) or np.abs(
                full.blocks[i, i] - p
            ).max() <= 1e-15
        for i, j in ((0, 2), (1, 3), (2, 0), (3, 1)):
            assert np.abs(full.blocks[i, j] - z).max() <= 1e-15

    def test_scalar_zero_grid(self):
        grid = ProjGrid(np.zeros((2, 2, 1, 1), dtype=complex))
        full = complete_2x2_to_4x4(grid)
        flat = full.blocks.reshape(4, 4)
        expected = np.array(
            [
                [0, 0, 1, 0],
                [0, 0, 0, 1],
                [1, 0, 0, 0],
                [0, 1, 0, 0],
            ],
            dtype=complex,
        )
        assert np.array_equal(flat, expected)

    def test_random_instances_magic_and_bit_exact(self):
        for d in (2, 4, 8):
            for seed in range(20):
                grid = random_grid(2, d, seed)
                full = complete_2x2_to_4x4(grid, tol=1e-9)
                assert check_grid(full, 1e-9).magic
                assert np.array_equal(full.blocks[:2, :2], grid.blocks)

    def test_equal_antidiagonal_blocks(self):
        # r = s supported in the joint kernel of p and q
        rng = np.random.default_rng(67)
        d = 8
        g = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
        q_basis, _ = np.linalg.qr(g)
        p = q_basis @ q_basis.conj().T
        q = p.copy()
        kernel = np.eye(d) - p
        w, v = np.linalg.eigh(kernel)
        basis = v[:, w > 0.5]
        sub = basis[:, :2]
        r = sub @ sub.conj().T
        grid = ProjGrid([[p, r], [r, q]])
        full = complete_2x2_to_4x4(grid)
        assert check_grid(full, 1e-9).magic

    def test_rejects_not_submagic(self):
        eye = np.eye(2, dtype=complex)
        bad = ProjGrid([[eye, eye], [eye, eye]])
        with pytest.raises(NotSubmagic):
            complete_2x2_to_4x4(bad)

    def test_wrong_size(self):
        grid = grid_from_hadamard(fourier([3]))
        with pytest.raises(ValueError):
            complete_2x2_to_4x4(grid)


class TestSumBound:
    def test_magic_grid_at_target_equal_size(self):
        grid = grid_from_hadamard(fourier([3]))
        result = sum_bound_check(grid, 3)
        assert result.passes
        assert result.lambda_min == pytest.approx(3.0, abs=1e-10)

    def test_boundary_pass(self):
        result = sum_bound_check(grid_from_hadamard(f3_top2()), 3)
        assert result.passes
        assert result.lambda_min == pytest.approx(1.0, abs=1e-10)

    def test_pq_fails(self):
        result = sum_bound_check(pq_grid(), 3)
        assert not result.passes
        assert result.lambda_min == pytest.approx(0.0, abs=1e-12)


class TestRandomGrid:
    def test_deterministic(self):
        assert random_grid(2, 4, 7) == random_grid(2, 4, 7)

    def test_always_submagic(self):
        for seed in range(30):
            assert check_grid(random_grid(2, 5, seed)).submagic
        for seed in range(10):
            assert check_grid(random_grid(1, 3, seed)).submagic

    def test_scalar_blocks(self):
        for seed in range(10):
            grid = random_grid(2, 1, seed)
            flat = grid.blocks.reshape(-1)
            assert all(z in (0, 1) for z in flat)

    def test_unsupported_size(self):
        with pytest.raises(ValueError, match="only supported for M in {1, 2}, got 3"):
            random_grid(3, 4, 0)


class TestPgridFormat:
    def test_round_trip(self):
        grid = random_grid(2, 3, 11)
        text = format_pgrid(grid)
        again = parse_pgrid(text)
        assert again == grid
        assert format_pgrid(again) == text

    def test_errors(self):
        with pytest.raises(FormatError):
            parse_pgrid("nope")
        with pytest.raises(FormatError):
            parse_pgrid("pgrid v1\n1 2\n(1.0,0.0) (0.0,0.0)\n")
        with pytest.raises(FormatError):
            parse_pgrid("pgrid v1\n1 1\nxyz\n")

    @pytest.mark.parametrize("tok", ["(nan,0.0)", "(0.0,nan)", "(inf,0.0)", "(0.0,-inf)"])
    def test_non_finite_tokens_rejected(self, tok):
        with pytest.raises(FormatError, match="non-finite"):
            parse_pgrid(f"pgrid v1\n1 1\n{tok}\n")
