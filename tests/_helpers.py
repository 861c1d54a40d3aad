"""Shared builders for exact randomized test instances."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from hadperm._linalg import hermitize, spectral_norm, spectral_norms
from hadperm.errors import NotCommuting, RankError
from hadperm.pperm import PartialPermutation, compose
from hadperm.prelatin import PreLatinSquare
from hadperm.submagic import ProjGrid
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


def turned_hadamard_rows(angle: float = 1e-3) -> TorusMatrix:
    """Rows cos(t) R1 + i sin(t) R2, R2, R3 of the real 4 x 4 Hadamard
    matrix: unit-modulus, not partial Hadamard (|<R1, R2>| = 4 sin t), yet
    with a constant minor profile, since by Cauchy-Binet the squared minor
    moduli sum to det(HH*) and each equals a quarter of it here."""
    r = np.array(
        [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=complex
    )
    top = np.cos(angle) * r[0] + 1j * np.sin(angle) * r[1]
    return TorusMatrix.from_complex(np.array([top, r[1], r[2]]))


def reference_minors(h: TorusMatrix) -> np.ndarray:
    """Reference minor determinants det H^(j), j = 1..N, of an (N-1) x N
    matrix: one ``np.delete`` and one ``det`` per column."""
    a = h.to_complex()
    return np.array(
        [np.linalg.det(np.delete(a, j, axis=1)) for j in range(h.cols)], dtype=complex
    )


def reference_closure(generators) -> list[PartialPermutation]:
    """Reference closure order: breadth-first search of the right Cayley
    graph with one ``compose`` per product, the generators first in
    first-occurrence order."""
    unique = list(dict.fromkeys(generators))
    order, seen = list(unique), set(unique)
    for x in order:
        for g in unique:
            product = compose(x, g)
            if product not in seen:
                seen.add(product)
                order.append(product)
    return order


def reference_enumeration(n: int) -> list[PartialPermutation]:
    """Reference enumeration order: by number of defined points, then
    lexicographically on the image, each image built point by point."""
    out = []
    for k in range(n + 1):
        batch = []
        for positions in combinations(range(n), k):
            for values in permutations(range(1, n + 1), k):
                img = [0] * n
                for pos, val in zip(positions, values):
                    img[pos] = val
                batch.append(tuple(img))
        out += [PartialPermutation(img) for img in sorted(batch)]
    return out


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


def reference_grid_report(grid, tol: float) -> tuple[dict[str, float], bool, bool, bool]:
    """Reference certification by the dense formulas: every block defect in
    one batch, every same-row and same-column product P_a P_b (a != b) of an
    (M, M, M, d, d) stack with an SVD each, and the brute-force commutator.
    Returns (worst_violations, submagic, magic, commuting)."""
    m, d = grid.size, grid.dim
    blocks = grid.blocks
    flat = blocks.reshape(m * m, d, d)
    eye = np.eye(d)
    off = ~np.eye(m, dtype=bool)

    def orthogonality(lines):
        if m == 1:
            return 0.0
        prods = np.matmul(lines[:, :, None, :, :], lines[:, None, :, :, :])
        return float(spectral_norms(prods[:, off]).max())

    worst = {
        "projection": float(spectral_norms(np.matmul(flat, flat) - flat).max()),
        "hermitian": float(spectral_norms(flat - flat.conj().transpose(0, 2, 1)).max()),
        "row_orthogonality": orthogonality(blocks),
        "column_orthogonality": orthogonality(blocks.transpose(1, 0, 2, 3)),
        "row_sum": float(spectral_norms(blocks.sum(axis=1) - eye).max()),
        "column_sum": float(spectral_norms(blocks.sum(axis=0) - eye).max()),
        "commutator": brute_force_commutator(grid),
    }
    submagic = max(
        worst[k]
        for k in ("projection", "hermitian", "row_orthogonality", "column_orthogonality")
    ) <= tol
    magic = submagic and max(worst["row_sum"], worst["column_sum"]) <= tol
    return worst, submagic, magic, worst["commutator"] <= tol


def reference_pre_latin(grid, n_target: int, *, tol: float) -> PreLatinSquare:
    """Reference pre-Latin square of a commuting rank-one grid by clustering:
    one ``eigh`` per block for its rank check and image vector, then each
    image joins the first earlier representative it is parallel to (overlap
    within ``1e3 * tol`` of 1), or starts a new label.  An overlap strictly
    between the two thresholds raises :class:`NotCommuting`."""
    m, d = grid.size, grid.dim
    cluster_tol = max(1e3 * tol, 1e-12)
    reps: list[np.ndarray] = []
    entries = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            block = grid.blocks[i, j]
            w, v = np.linalg.eigh(hermitize(block))
            # ascending eigenvalues: top one must be 1, all others pinched
            # between w[0] and w[-2], so those two endpoints bound the rest
            rest = max(abs(w[0]), abs(w[-2])) if d > 1 else 0.0
            if abs(w[-1] - 1.0) > cluster_tol or rest > cluster_tol:
                raise RankError(
                    f"block ({i + 1},{j + 1}) is not a rank-one projection "
                    f"(top eigenvalue {w[-1]:.6f}, remaining bound {rest:.6f})"
                )
            vec = v[:, -1]
            label = None
            for idx, rep in enumerate(reps):
                overlap = abs(np.dot(vec, rep.conj()))
                if overlap >= 1.0 - cluster_tol:
                    label = idx + 1
                    break
                if overlap > cluster_tol:
                    raise NotCommuting(
                        f"images of blocks are neither parallel nor orthogonal "
                        f"(overlap {overlap:.6f} at block ({i + 1},{j + 1}))"
                    )
            if label is None:
                reps.append(vec)
                label = len(reps)
            entries[i][j] = label
    return PreLatinSquare(entries, n_target)


def known_commuting_grid(m: int, d: int, seed: int) -> tuple[ProjGrid, Counter]:
    """Commuting submagic M x M grid on C^d with known classical points.

    Each column v_c of a Haar-random unitary gets a partial permutation
    sigma_c drawn from a pool of three random ones, so joint eigenspaces of
    dimension above 1 occur; block (i, j) sums the projectors v_c v_c* over
    the columns with sigma_c(j) = i.  Returns the grid and Counter(sigma_c).
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    unitary = q * (np.diag(r) / np.abs(np.diag(r)))
    maps = []
    for _ in range(3):
        image = rng.permutation(m) + 1
        image[rng.random(m) < 0.3] = 0
        maps.append(PartialPermutation(image))
    sigmas = [maps[k] for k in rng.integers(0, 3, size=d)]
    blocks = np.zeros((m, m, d, d), dtype=complex)
    for vec, sigma in zip(unitary.T, sigmas):
        for j, i in enumerate(sigma.image):
            if i:
                blocks[i - 1, j] += np.outer(vec, vec.conj())
    return ProjGrid(blocks), Counter(sigmas)
