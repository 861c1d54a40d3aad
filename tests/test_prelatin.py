"""Pre-Latin squares: validation, induced partial permutations, semigroups,
and the .pls format."""

import numpy as np
import pytest

from hadperm.errors import FormatError, InvalidSquare
from hadperm import prelatin
from hadperm.pperm import PartialPermutation, generate_semigroup
from hadperm.prelatin import (
    PreLatinSquare,
    parse_pls,
    semigroup_of,
    sigma_of,
)
from hadperm.submagic import ProjGrid, check_grid


def pp(*image):
    return PartialPermutation(image)


def random_pre_latin(m, n, rng):
    """Top-left M x M corner of a randomized cyclic Latin square of size N:
    rows and columns inherit distinctness, so the corner is pre-Latin."""
    base = (np.add.outer(np.arange(n), np.arange(n)) % n) + 1
    base = base[rng.permutation(n)][:, rng.permutation(n)]
    relabel = rng.permutation(n) + 1
    entries = [[int(relabel[v - 1]) for v in row[:m]] for row in base[:m]]
    return PreLatinSquare(entries, n)


class TestValidate:
    def test_valid_square(self):
        square = PreLatinSquare([[1, 2], [3, 1]], 3)
        assert square.size == 2 and square.alphabet == 3
        assert square.entries[1][0] == 3

    def test_duplicate_in_row(self):
        with pytest.raises(InvalidSquare, match=r"^duplicate entry in row 1$"):
            PreLatinSquare([[1, 1], [2, 3]], 3)

    def test_duplicate_reported_even_for_single_row_input(self):
        with pytest.raises(InvalidSquare, match=r"^duplicate entry in row 1$"):
            PreLatinSquare([[1, 1]], 2)

    def test_duplicate_in_column(self):
        with pytest.raises(InvalidSquare, match=r"^duplicate entry in column 1$"):
            PreLatinSquare([[1, 2], [1, 3]], 3)

    def test_latin_square_is_pre_latin(self):
        assert PreLatinSquare([[1, 2], [2, 1]], 2).size == 2

    def test_out_of_alphabet(self):
        with pytest.raises(InvalidSquare, match=r"^entry at \(2,2\) is outside the alphabet$"):
            PreLatinSquare([[1, 2], [3, 4]], 3)

    def test_shape_must_be_square(self):
        with pytest.raises(ValueError):
            PreLatinSquare([[1, 2]], 2)


class TestSigmaOf:
    def test_value_present_once(self):
        square = PreLatinSquare([[1, 2], [3, 1]], 3)
        assert sigma_of(square, 2) == pp(0, 1)  # L[1][2] = 2, so sigma(2) = 1
        assert sigma_of(square, 1) == PartialPermutation.identity(2)
        assert sigma_of(square, 3) == pp(2, 0)

    def test_absent_value_gives_empty_map(self):
        square = PreLatinSquare([[1, 2], [3, 1]], 4)
        assert sigma_of(square, 4) == PartialPermutation.empty(2)

    def test_cyclic_square_gives_shift(self):
        square = PreLatinSquare(
            [[((i - j) % 3) + 1 for j in range(3)] for i in range(3)], 3
        )
        assert sigma_of(square, 2) == pp(2, 3, 1)  # j -> j+1 mod 3

    def test_out_of_range_value(self):
        square = PreLatinSquare([[1]], 1)
        with pytest.raises(ValueError):
            sigma_of(square, 2)

    def test_reconstruction(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n + 1))
            square = random_pre_latin(m, n, rng)
            sigmas = {x: sigma_of(square, x) for x in range(1, n + 1)}
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    x = square.entries[i - 1][j - 1]
                    assert sigmas[x](j) == i
            for x, sigma in sigmas.items():
                for j in range(1, m + 1):
                    i = sigma(j)
                    if i is not None:
                        assert square.entries[i - 1][j - 1] == x


class TestSemigroupOf:
    def test_single_cell(self):
        sg = semigroup_of(PreLatinSquare([[1]], 1))
        assert len(sg) == 1
        assert sg.elements[0] == PartialPermutation.identity(1)

    def test_order_six_example(self):
        sg = semigroup_of(PreLatinSquare([[1, 2], [3, 1]], 3))
        assert len(sg) == 6
        assert set(sg.elements) == {
            pp(1, 2), pp(0, 1), pp(2, 0), pp(1, 0), pp(0, 2), pp(0, 0),
        }

    def test_cyclic_square(self):
        square = PreLatinSquare(
            [[((i - j) % 3) + 1 for j in range(3)] for i in range(3)], 3
        )
        sg = semigroup_of(square)
        assert len(sg) == 3
        assert sg.is_group()

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, n + 1))
            square = random_pre_latin(m, n, rng)
            relabel = rng.permutation(n) + 1
            relabeled = PreLatinSquare(
                [[int(relabel[v - 1]) for v in row] for row in square.entries], n
            )
            assert semigroup_of(square) == semigroup_of(relabeled)

    def test_unused_labels_add_empty_generator(self):
        # alphabet value 4 never occurs: the empty map is a generator
        sg = semigroup_of(PreLatinSquare([[1, 2], [3, 1]], 4))
        assert PartialPermutation.empty(2) in sg

    def test_matches_per_value_generators(self):
        # absent symbols anywhere in the alphabet, including past the largest
        # symbol of the underlying Latin square
        rng = np.random.default_rng(43)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n + 1))
            corner = random_pre_latin(m, n, rng)
            square = PreLatinSquare(corner.entries, n + int(rng.integers(0, 3)))
            per_value = generate_semigroup(
                sigma_of(square, x) for x in range(1, square.alphabet + 1)
            )
            sg = semigroup_of(square)
            assert [g.image for g in sg.generators] == [g.image for g in per_value.generators]
            assert [e.image for e in sg.elements] == [e.image for e in per_value.elements]

    def test_huge_alphabet_visits_present_values_only(self, monkeypatch):
        calls = []

        def counted(square, x):
            calls.append(x)
            # fail at once rather than visit all 10**9 symbols
            assert len(calls) == 1, "sigma_of called for an absent symbol"
            return sigma_of(square, x)

        monkeypatch.setattr(prelatin, "sigma_of", counted)
        sg = semigroup_of(PreLatinSquare([[1]], 10**9))
        assert calls == [1]
        assert [g.image for g in sg.generators] == [(1,), (0,)]


class TestGridSoundness:
    def test_projection_grid_from_square_is_submagic(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, n + 1))
            square = random_pre_latin(m, n, rng)
            # random orthonormal basis of C^n
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            basis, _ = np.linalg.qr(g)
            blocks = np.empty((m, m, n, n), dtype=complex)
            for i in range(m):
                for j in range(m):
                    v = basis[:, square.entries[i][j] - 1]
                    blocks[i, j] = np.outer(v, v.conj())
            assert check_grid(ProjGrid(blocks), 1e-10).submagic


class TestPlsFormat:
    def test_round_trip(self):
        square = PreLatinSquare([[1, 2], [3, 1]], 4)
        assert parse_pls("pls v1\n2 4\n1 2\n3 1\n") == square

    def test_errors(self):
        with pytest.raises(FormatError):
            parse_pls("nope")
        with pytest.raises(FormatError):
            parse_pls("pls v1\n2 3\n1 2\n")
        with pytest.raises(InvalidSquare, match="duplicate entry in row 1"):
            parse_pls("pls v1\n2 3\n1 1\n2 3\n")
