"""Shared builders for exact randomized test instances."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

from hadperm._linalg import spectral_norm
from hadperm.pperm import compose
from hadperm.torus import TorusMatrix


def random_phase(rng: np.random.Generator, max_den: int = 9) -> Fraction:
    q = int(rng.integers(1, max_den + 1))
    p = int(rng.integers(0, q))
    return Fraction(p, q)


def exact_randomized_fourier(
    n: int, rng: np.random.Generator, max_den: int = 9
) -> TorusMatrix:
    """Exact n x n Hadamard matrix: the Fourier matrix with random
    root-of-unity row/column scalings and random row/column permutations."""
    row_scale = [random_phase(rng, max_den) for _ in range(n)]
    col_scale = [random_phase(rng, max_den) for _ in range(n)]
    rows = rng.permutation(n)
    cols = rng.permutation(n)
    return TorusMatrix.from_phases(
        [
            [
                row_scale[i] + Fraction(int(rows[i] * cols[j]), n) + col_scale[j]
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def phases(h: TorusMatrix) -> list[list[Fraction | None]]:
    return [[h.phase(i, j) for j in range(1, h.cols + 1)] for i in range(1, h.rows + 1)]


def drop_last_row(h: TorusMatrix) -> TorusMatrix:
    return take_rows(h, h.rows - 1)


def take_rows(h: TorusMatrix, count: int) -> TorusMatrix:
    """The first ``count`` rows of an exact matrix."""
    return TorusMatrix.from_phases(phases(h)[:count])


def brute_force_closure(generators) -> set:
    """Reference semigroup closure: add every pairwise product of the
    elements found so far until no new element appears."""
    elements = set(generators)
    while True:
        products = {compose(a, b) for a in elements for b in elements}
        if products <= elements:
            return elements
        elements |= products


def brute_force_commutator(grid) -> float:
    """Reference commutator: the largest spectral norm of xy - yx over all
    pairs of distinct blocks."""
    flat = grid.blocks.reshape(-1, grid.dim, grid.dim)
    return max(
        (spectral_norm(x @ y - y @ x) for x, y in combinations(flat, 2)), default=0.0
    )
