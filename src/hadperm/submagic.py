"""Finite-dimensional grids of orthogonal projections.

A grid is an M x M array of d x d complex blocks.  It is *submagic* when
every block is an orthogonal projection and blocks are pairwise orthogonal
along each row and each column, and *magic* when additionally every row and
column sums to the identity.  This module builds such grids from partial
Hadamard matrices (block (i,j) projects onto the entrywise quotient of rows
i and j), certifies the submagic/magic/commuting properties, reads the
pre-Latin square and classical points of a commuting grid off one joint
eigenbasis (which also certifies the commutation; its random combination has
a fixed seed, so every reader gets the same basis of the same grid), and
implements the three completion procedures: adding one final row and column,
completing a commuting grid through total-permutation embeddings of its
classical points, and the unconditional 2x2 -> 4x4 completion.

Spectral (operator) norms are used throughout; ``tol`` defaults to 1e-9
everywhere and is overridable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._linalg import (
    DEFAULT_TOL,
    hermitize,
    kernel_basis,
    random_projection,
    spectral_norm,
    spectral_norms,
    within,
)
from ._text import format_complex, parse_complex, parse_complex_tokens, read_document
from .errors import (
    DegenerateSplit,
    FormatError,
    LimitExceeded,
    NotCommuting,
    NotCompletable,
    NotSubmagic,
    RankError,
)
from .pperm import PartialPermutation, embed_total
from .prelatin import PreLatinSquare
from .torus import TorusMatrix, _require_hadamard

__all__ = [
    "ProjGrid",
    "GridReport",
    "grid_from_hadamard",
    "check_grid",
    "pre_latin_from_rank_one",
    "classical_points",
    "complete_last",
    "complete_commuting",
    "complete_2x2_to_4x4",
    "sum_bound_check",
    "SumBoundResult",
    "random_grid",
    "parse_pgrid",
    "format_pgrid",
    "read_pgrid",
]

_RETRY_BUDGET = 3
_SVD_BATCH = 128
# Most multiply-adds, M^2 (M^2 - 1) / 2 pair products of d^3 each, that one
# pair scan may take: the grid of F_32 (1.7e10, about 10 s on one core of a
# 2-core x86 box) passes, that of F_33 (2.1e10) and larger ones are refused.
_PAIR_SCAN_LIMIT = 2 * 10**10
# Most bytes, 16 M^2 d^2, of the complex blocks of an M x M grid that
# grid_from_hadamard or complete_commuting may allocate: the grid of F_50
# (1e8 bytes, 0.1-0.15 s and a 104 MB peak on one core of a 2-core x86 box)
# passes, that of F_51 and larger ones are refused.
_GRID_BYTES_LIMIT = 10**8
# Smallest modulus of a nonzero row-quotient component at which the rank-one
# blocks are scaled by a product instead of a division (_rank_one_blocks).
_PRODUCT_SCALE_MIN = 2.0**-200


class ProjGrid:
    """An M x M grid of d x d complex blocks, immutable after construction.

    ``blocks`` is a read-only complex array of shape (M, M, d, d); block
    (i, j) in 1-based grid coordinates sits at ``blocks[i-1, j-1]``.  The
    constructor copies its input and raises ``ValueError`` on another shape
    or on a NaN or infinite entry, naming the first such block.
    """

    __slots__ = ("size", "dim", "blocks")

    def __init__(self, blocks):
        arr = np.array(blocks, dtype=complex)
        if arr.ndim != 4 or arr.shape[0] != arr.shape[1] or arr.shape[2] != arr.shape[3]:
            raise ValueError(f"expected (M, M, d, d) blocks, got shape {arr.shape}")
        finite = np.isfinite(arr).all(axis=(2, 3))
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            raise ValueError(f"block ({i + 1},{j + 1}) has a non-finite entry")
        arr.setflags(write=False)
        self.size = int(arr.shape[0])
        self.dim = int(arr.shape[2])
        self.blocks = arr

    def total_sum(self) -> np.ndarray:
        """Sum of all blocks."""
        return self.blocks.sum(axis=(0, 1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjGrid):
            return NotImplemented
        return self.blocks.shape == other.blocks.shape and bool(
            np.array_equal(self.blocks, other.blocks)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"ProjGrid(size={self.size}, dim={self.dim})"


def _trusted(blocks: np.ndarray) -> ProjGrid:
    """Wrap a complex (M, M, d, d) array this module has just built and holds
    no other reference to, without the copy and shape check that the public
    constructor applies to outside input."""
    grid = object.__new__(ProjGrid)
    blocks.setflags(write=False)
    grid.size = int(blocks.shape[0])
    grid.dim = int(blocks.shape[2])
    grid.blocks = blocks
    return grid


@dataclass(frozen=True)
class GridReport:
    """Certification result for a grid.

    ``submagic`` requires every block to be a Hermitian idempotent and blocks
    to be pairwise orthogonal along each row and column; ``magic`` adds unit
    row and column sums (so magic implies submagic); ``commuting`` bounds the
    largest commutator between any two blocks.  ``worst_violations`` maps a
    label to the largest spectral-norm defect of that kind; every value is
    the exact maximum over all blocks or pairs at any scale of the entries,
    the same float that an SVD of every candidate matrix would give, and the
    three pairwise ones (``row_orthogonality``, ``column_orthogonality``,
    ``commutator``) come from one scan of the pair products.
    """

    submagic: bool
    magic: bool
    commuting: bool
    worst_violations: dict[str, float]


def grid_from_hadamard(h: TorusMatrix, *, tol: float = DEFAULT_TOL) -> ProjGrid:
    """Rank-one grid of a partial Hadamard matrix: block (i, j) projects onto
    the entrywise row quotient R_i / R_j.

    The input is certified partial Hadamard at ``tol`` first; orthogonality of
    the quotients along rows and columns then makes the output submagic.
    Ambient dimension equals the number of columns, and every diagonal block
    projects onto the all-ones vector.  A grid larger than
    ``_GRID_BYTES_LIMIT`` is refused with :class:`LimitExceeded` first.

    The blocks are ``xi ⊗ conj(xi) / N`` bit for bit, but scaled by one
    complex product per entry instead of numpy's division where that gives
    the same bits (:func:`_rank_one_blocks`).
    """
    _require_grid_fits(h.rows, h.cols)
    _require_hadamard(h, tol)
    return _trusted(_rank_one_blocks(h.to_complex()))


def _rank_one_blocks(a: np.ndarray) -> np.ndarray:
    """The blocks ``xi ⊗ conj(xi) / N`` of the row quotients xi = a_i / a_j of
    the finite M x N array ``a``, bit for bit as numpy computes them.

    numpy divides by the real N as by N + 0i with Smith's rule, giving
    ((re + im*0)*s, (im - re*0)*s) with s = fl(1/N): two real divisions'
    worth of work per entry.  Multiplying by s - 0i gives
    (re*s - im*(-0), re*(-0) + im*s).  Where re*s != 0 both real parts are
    re*s, since adding a zero leaves a nonzero unchanged; where re = +-0 both
    are the zero whose sign bit is set iff re = -0 and im's sign bit is set.
    The imaginary parts agree in the same way (-0 iff im = -0 and re's sign
    bit is clear).  So the two differ only where a nonzero component c has
    c*s round to zero.

    That cannot happen when every nonzero component of xi has modulus at
    least ``_PRODUCT_SCALE_MIN`` = 2^-200.  Each such component is a multiple
    of its ulp, at least 2^-252; so each exact product of two of them is a
    multiple of 2^-504, and so is each rounded product (a normal double of
    modulus at least 2^-400) and each exact sum of two, fused or not.  A
    nonzero block component c therefore has |c| >= 2^-504, and |c*s| >=
    2^-504 / N lies far above the 2^-1075 below which it rounds to zero.
    Where some component is smaller the blocks are divided as before.
    """
    xi = a[:, None, :] / a[None, :, :]
    blocks = xi[..., :, None] * xi.conj()[..., None, :]
    n = a.shape[1]
    parts = np.abs(xi.view(float))
    if ((parts > 0) & (parts < _PRODUCT_SCALE_MIN)).any():
        blocks /= n
    else:
        blocks *= complex(1.0 / n, -0.0)
    return blocks


def check_grid(grid: ProjGrid, tol: float = DEFAULT_TOL) -> GridReport:
    """Certify the submagic, magic and commuting properties at ``tol``.

    The blockwise defects (projection, Hermitian, row and column sums) come
    from one batched pass over the blocks; the three pairwise defects (row
    and column orthogonality, commutator) come from one scan that forms each
    pair product once.  Each of the seven maxima takes exact SVDs only of
    the matrices whose Frobenius norm, an upper bound on the spectral norm,
    can still exceed the largest spectral norm found so far
    (:func:`_max_spectral`), so every reported value is the exact maximum at
    every grid size and every scale.  A grid whose pair scan would exceed
    ``_PAIR_SCAN_LIMIT`` is refused with :class:`LimitExceeded` first.
    """
    m, d = grid.size, grid.dim
    _require_pair_scan_fits(m, d)
    blocks = grid.blocks
    flat = blocks.reshape(m * m, d, d)
    eye = np.eye(d)

    proj_err = _max_spectral_of(np.matmul(flat, flat) - flat)
    herm_err = _max_spectral_of(flat - flat.conj().transpose(0, 2, 1))
    row_sum_err = _max_spectral_of(blocks.sum(axis=1) - eye)
    col_sum_err = _max_spectral_of(blocks.sum(axis=0) - eye)
    row_orth, col_orth, commutator = _pair_defects(flat, m)

    submagic = all(within(v, tol) for v in (proj_err, herm_err, row_orth, col_orth))
    magic = submagic and all(within(v, tol) for v in (row_sum_err, col_sum_err))
    return GridReport(
        submagic=submagic,
        magic=magic,
        commuting=within(commutator, tol),
        worst_violations={
            "projection": proj_err,
            "hermitian": herm_err,
            "row_orthogonality": row_orth,
            "column_orthogonality": col_orth,
            "row_sum": row_sum_err,
            "column_sum": col_sum_err,
            "commutator": commutator,
        },
    )


def _pair_defects(flat: np.ndarray, m: int) -> tuple[float, float, float]:
    """Exact maxima of the pairwise defects of the row-major blocks ``flat``
    of an M x M grid: (row orthogonality, column orthogonality, commutator).

    One scan over the pairs (a, b > a) forms P_a P_b and P_b P_a once each
    and records the Frobenius norms of both products and of their
    difference.  The commutator's maximum runs over all pairs; row
    orthogonality takes both products of the same-row pairs and column
    orthogonality those of the same-column pairs.  Each maximum then
    re-forms, with the same matmul, only the products that
    :func:`_max_spectral` selects for an SVD.  A grid of one block has no
    pairs, so all three maxima are 0.0.
    """
    first, second = np.triu_indices(flat.shape[0], 1)
    fro = _pair_norms(flat)

    def products(line):
        x = np.concatenate([first[line], second[line]])
        y = np.concatenate([second[line], first[line]])
        norms = np.concatenate([fro[0, line], fro[1, line]])
        return _max_spectral(norms, lambda idx: np.matmul(flat[x[idx]], flat[y[idx]]))

    def commutators(idx):
        x, y = flat[first[idx]], flat[second[idx]]
        comm = np.matmul(x, y)
        comm -= np.matmul(y, x)
        return comm

    row = products(first // m == second // m)
    col = products(first % m == second % m)
    return row, col, _max_spectral(fro[2], commutators)


def _require_pair_scan_fits(m: int, d: int) -> None:
    """Raise :class:`LimitExceeded` when the pair scan of an M x M grid of
    d x d blocks would take more than ``_PAIR_SCAN_LIMIT`` multiply-adds."""
    work = m * m * (m * m - 1) // 2 * d**3
    if work > _PAIR_SCAN_LIMIT:
        raise LimitExceeded(
            f"pair scan of a {m} x {m} grid of {d} x {d} blocks needs {work:.2e} "
            f"multiply-adds, above the limit {_PAIR_SCAN_LIMIT:.2e}"
        )


def _require_grid_fits(m: int, d: int) -> None:
    """Raise :class:`LimitExceeded` when the blocks of an M x M grid of d x d
    blocks would take more than ``_GRID_BYTES_LIMIT`` bytes."""
    if 16 * m * m * d * d > _GRID_BYTES_LIMIT:
        raise LimitExceeded(
            f"a {m} x {m} grid of {d} x {d} blocks exceeds the limit of "
            f"{_GRID_BYTES_LIMIT:.2e} bytes"
        )


def _pair_norms(flat: np.ndarray) -> np.ndarray:
    """Frobenius norms of P_a P_b, P_b P_a and P_a P_b - P_b P_a (rows 0, 1
    and 2) over the pairs a < b of the stack ``flat``, in the order of
    ``np.triu_indices(n, 1)``; the products of each a share one buffer."""
    n, d = flat.shape[0], flat.shape[1]
    fro = np.empty((3, n * (n - 1) // 2))
    buffer = np.empty((3 * max(n - 1, 0), d, d), dtype=complex)
    start = 0
    for a in range(n - 1):
        k = n - 1 - a
        ab, ba, diff = buffer[: 3 * k].reshape(3, k, d, d)
        np.matmul(flat[a], flat[a + 1 :], out=ab)
        np.matmul(flat[a + 1 :], flat[a], out=ba)
        np.subtract(ab, ba, out=diff)
        fro[:, start : start + k] = _frobenius_norms(buffer[: 3 * k]).reshape(3, k)
        start += k
    return fro


def _max_spectral_of(mats: np.ndarray) -> float:
    """Largest spectral norm in the stack ``mats`` (0.0 for an empty one)."""
    return _max_spectral(_frobenius_norms(mats), mats.__getitem__)


def _max_spectral(fro: np.ndarray, take) -> float:
    """Largest spectral norm of n matrices, with exact SVDs only where they
    can set it; 0.0 when n is 0.

    ``fro`` holds their Frobenius norms and ``take(idx)`` forms the stack of
    the matrices ``idx``.  The Frobenius norm bounds the spectral norm from
    above, so the matrices are visited in descending Frobenius order, in
    batches of 1, 2, 4, ... up to ``_SVD_BATCH``, which bounds the memory of
    the re-formed stack; the scan stops at the first matrix whose norm,
    with a relative margin against rounding, is not above the running
    maximum, since neither it nor any later one can raise it.  Exact zero
    matrices, common in submagic grids, never reach the SVD.  A NaN or
    infinite norm, from a product that overflowed, sorts first and is
    returned as the maximum, so it fails every ``<= tol`` test.
    """
    order = np.argsort(fro)[::-1]
    if len(order) and not np.isfinite(fro[order[0]]):
        return float(fro[order[0]])
    worst = 0.0
    start, size = 0, 1
    while start < len(order):
        batch = order[start : start + size]
        live = int(np.count_nonzero(fro[batch] * (1 + 1e-6) > worst))
        if live:
            worst = max(worst, float(spectral_norms(take(batch[:live])).max()))
        if live < len(batch):
            break
        start += size
        size = min(2 * size, _SVD_BATCH)
    return worst


def _frobenius_norms(mats: np.ndarray) -> np.ndarray:
    """Frobenius norms of a (n, d, d) complex stack, accurate at every scale.

    One pass sums the squares of the real and imaginary parts.  A sum at
    least 2**-600 is accurate to rounding, since squares flushed to zero
    (parts below about 1e-154) can change it by at most 2 d**2 2**-1022; a
    finite sum had no overflow.  Any other matrix but an exact zero one is
    summed again after an exact scaling by the power of two that brings its
    largest part into [0.5, 1).
    """
    n, rows, cols = mats.shape
    parts = mats.reshape(n, rows * cols).view(np.float64)
    sq = np.einsum("ij,ij->i", parts, parts)
    fro = np.sqrt(sq)
    accurate = (sq >= 2.0**-600) & (sq < np.inf)
    if not accurate.all():
        redo = np.flatnonzero(~accurate)
        top = np.abs(parts[redo]).max(axis=1, initial=0.0)
        redo, top = redo[top != 0], top[top != 0]
        _, exp = np.frexp(top)
        scaled = np.ldexp(parts[redo], -exp[:, None])
        fro[redo] = np.ldexp(np.sqrt(np.einsum("ij,ij->i", scaled, scaled)), exp)
    return fro


def pre_latin_from_rank_one(
    grid: ProjGrid, n_target: int, *, tol: float = DEFAULT_TOL
) -> PreLatinSquare:
    """Recover the pre-Latin square of a commuting rank-one submagic grid.

    Two commuting rank-one projections have images that are either equal or
    orthogonal, so each block fixes exactly one vector of the grid's joint
    eigenbasis (:func:`_joint_eigensystem`): block (i, j) gets the column c
    with sigma_c(j) = i.  Columns become labels 1, 2, ... in row-major
    first-seen order, and the alphabet is padded to ``n_target``.
    Raises :class:`RankError` first if some block is not a rank-one
    projection within ``max(1e3 * tol, 1e-12)`` (first offender in row-major
    order), then :class:`NotCommuting` if a commutator exceeds ``tol``.
    """
    m, d = grid.size, grid.dim
    cluster_tol = max(1e3 * tol, 1e-12)
    w = np.linalg.eigvalsh(hermitize(grid.blocks.reshape(m * m, d, d)))
    # ascending eigenvalues: the top one must be 1 and all others 0
    rest = np.abs(w[:, :-1]).max(axis=1, initial=0.0)
    bad = ~(within(np.abs(w[:, -1] - 1.0), cluster_tol) & within(rest, cluster_tol))
    if bad.any():
        a = int(np.argmax(bad))
        raise RankError(
            f"block ({a // m + 1},{a % m + 1}) is not a rank-one projection "
            f"(top eigenvalue {w[a, -1]:.6g}, remaining bound {rest[a]:.6g})"
        )
    _, sigmas = _joint_eigensystem(grid, tol)
    column = {(i, j): c for c, s in enumerate(sigmas) for j, i in enumerate(s.image) if i}
    labels: dict[int, int] = {}
    entries = [labels.setdefault(column[key], len(labels) + 1) for key in sorted(column)]
    return PreLatinSquare(np.reshape(entries, (m, m)), n_target)


def _joint_eigensystem(
    grid: ProjGrid, tol: float
) -> tuple[np.ndarray, list[PartialPermutation]]:
    """Joint eigenbasis of all blocks of a commuting grid, which also
    certifies that the blocks commute.

    Returns (V, sigmas): V has the d joint eigenvectors as columns and
    sigmas[c] is the classical point of column c, i.e. sigma(j) = i exactly
    when block (i, j) fixes the vector.

    Strategy: the blocks commute, so with probability one every eigenvector
    of a random real-weighted sum of them is a joint eigenvector (He &
    Kressner, "Randomized joint diagonalization of symmetric matrices",
    SIAM J. Matrix Anal. Appl. 2024); each attempt takes V from one
    eigendecomposition of such a sum.  Residuals and 0/1 eigenvalues are
    verified on every column; a sum that merges two joint eigenspaces fails
    that test, and the procedure retries, attempt k seeding its weights with
    ``default_rng(k)``.  An ``eigh`` that does not converge (seen on sums of
    huge finite blocks) is a failed attempt too.

    The residuals also bound the commutators: P_b = V Lambda_b V* + E_b with
    ||E_b|| <= r_b, the Frobenius norm of block b's residual columns, and the
    V Lambda_b V* commute, so ||[P_a, P_b]|| <= 2q(r1 + r2) + 2 r1 r2 with
    q = max |lambda| and r1 >= r2 the two largest r_b.  A bound above ``tol``,
    or no attempt that classifies, runs :func:`check_grid`'s exact pair scan
    once; it raises :class:`NotCommuting` above ``tol``, before any
    :class:`NotSubmagic` or :class:`DegenerateSplit`.
    """
    m, d = grid.size, grid.dim
    ops = grid.blocks.reshape(m * m, d, d)
    cls_tol = min(0.1, max(1e4 * tol, 1e-8))
    last_error: DegenerateSplit | np.linalg.LinAlgError | None = None
    for attempt in range(_RETRY_BUDGET):
        rng = np.random.default_rng(attempt)
        weights = rng.standard_normal(m * m)
        try:
            # eigh fails to converge on some sums of huge finite blocks
            _, vectors = np.linalg.eigh(hermitize(np.tensordot(weights, ops, axes=1)))
            sigmas = _classify_columns(ops, vectors, m, cls_tol, tol)
        except (DegenerateSplit, np.linalg.LinAlgError) as exc:
            last_error = exc
            continue
        return vectors, sigmas
    _require_commuting(ops, m, tol)
    raise DegenerateSplit(
        f"joint eigenbasis failed after {_RETRY_BUDGET} attempts: {last_error}"
    )


def _require_commuting(ops: np.ndarray, m: int, tol: float) -> None:
    _require_pair_scan_fits(m, ops.shape[-1])
    _, _, commutator = _pair_defects(ops, m)
    if not within(commutator, tol):
        raise NotCommuting(f"largest commutator {commutator:.3e} exceeds tol {tol}")


def _classify_columns(
    ops: np.ndarray, vectors: np.ndarray, m: int, cls_tol: float, tol: float
) -> list[PartialPermutation]:
    """Read off the classical point of every joint eigenvector column once
    the column passes the residual and 0/1 tests and the commutator bound."""
    d = vectors.shape[1]
    # lam[b, c] = <op_b v_c, v_c>; for a genuine joint eigenvector this is the
    # block's eigenvalue on the vector, which must sit at 0 or 1.
    applied = np.matmul(ops, vectors)
    lam = np.einsum("dc,bdc->bc", vectors.conj(), applied).real
    applied -= lam[:, None, :] * vectors[None, :, :]
    residual = np.linalg.norm(applied, axis=1)
    if not within(residual.max(), cls_tol):
        raise DegenerateSplit(
            f"eigenvector residual {float(residual.max()):.3e} exceeds {cls_tol:.3e}"
        )
    if not within(np.minimum(np.abs(lam), np.abs(lam - 1)).max(), cls_tol):
        raise DegenerateSplit("block eigenvalues are not 0/1 on the joint basis")
    # the bound holds for a unitary V in exact arithmetic; eigh's V is unitary
    # to O(d eps), and the residuals and the scan's products carry O(d eps)
    # rounding per unit of norm (q <= 1.1), which the margin covers
    r = np.sort(np.linalg.norm(residual, axis=1))
    if len(r) > 1:
        q, r1, r2 = np.abs(lam).max(), r[-1], r[-2]
        bound = (2 * q * (r1 + r2) + 2 * r1 * r2) * (1 + 1e-6) + 64 * d * np.finfo(float).eps
        if not within(bound, tol):
            _require_commuting(ops, m, tol)
    fixed = (lam > 0.5).reshape(m, m, d)
    hits = fixed.sum(axis=0)
    # a vector fixed twice in one column, or in one row, is no partial
    # permutation's point: the blocks of that line are not orthogonal
    for line, count in (("column", hits), ("row", fixed.sum(axis=1))):
        several = (count > 1).T
        if several.any():
            c, k = divmod(int(np.argmax(several)), m)
            raise NotSubmagic(f"{line} {k + 1} fixes eigenvector {c + 1} under several blocks")
    image = np.where(hits == 1, fixed.argmax(axis=0) + 1, 0)
    return [PartialPermutation(col) for col in image.T.tolist()]


def classical_points(
    grid: ProjGrid, *, tol: float = DEFAULT_TOL
) -> Counter[PartialPermutation]:
    """Multiset of classical points of a commuting grid.

    Reads the joint eigenbasis of all blocks that
    :func:`pre_latin_from_rank_one` reads; each joint eigenvector v yields
    the partial permutation with sigma(j) = i exactly when block (i, j)
    fixes v.  Multiplicities sum to the ambient dimension.  The semigroup of
    the grid is generated by the distinct points.
    """
    _, sigmas = _joint_eigensystem(grid, tol)
    return Counter(sigmas)


def complete_last(grid: ProjGrid, *, tol: float = DEFAULT_TOL) -> ProjGrid:
    """Complete an M x M submagic grid to an (M+1) x (M+1) magic grid.

    The border is forced: block (i, M+1) complements row i, block (M+1, j)
    complements column j, and the corner is ``sum of all blocks - (M-1)``.
    The completion exists exactly when the corner is a projection; otherwise
    :class:`NotCompletable` is raised with the corner's idempotency defect as
    witness.  The input must be submagic and is not certified here (a
    :func:`check_grid` pass costs more than the completion); a grid that is
    not submagic can give a border that is not magic.  A completion larger
    than ``_GRID_BYTES_LIMIT`` is refused with :class:`LimitExceeded` first.
    """
    m, d = grid.size, grid.dim
    _require_grid_fits(m + 1, d)
    corner = grid.total_sum() - (m - 1) * np.eye(d)
    defect = spectral_norm(corner @ corner - corner)
    if not within(defect, tol):
        raise NotCompletable(
            f"corner block is not a projection: ||P^2 - P|| = {defect:.3e} > {tol}",
            witness=defect,
        )
    eye = np.eye(d)
    blocks = np.empty((m + 1, m + 1, d, d), dtype=complex)
    blocks[:m, :m] = grid.blocks
    blocks[:m, m] = eye - grid.blocks.sum(axis=1)
    blocks[m, :m] = eye - grid.blocks.sum(axis=0)
    blocks[m, m] = corner
    return _trusted(blocks)


def complete_commuting(grid: ProjGrid, n: int, *, tol: float = DEFAULT_TOL) -> ProjGrid:
    """Complete a commuting submagic M x M grid to a commuting magic N x N grid.

    Each classical point is extended to a total permutation of {1, ..., N}
    by :func:`~hadperm.pperm.embed_total`; this requires every point to have
    at most N - M undefined values, and ``embed_total`` reports the first
    offender as the :class:`NotCompletable` witness.  Block (i, j) of the
    completion sums the eigenprojections of the vectors (of the basis
    :func:`classical_points` reads) whose extended point maps j to i; the
    top-left M x M corner is the input grid, bit-exact.  A completion larger
    than ``_GRID_BYTES_LIMIT`` is refused with :class:`LimitExceeded` first.
    """
    m = grid.size
    if n < m:
        raise ValueError(f"target size {n} smaller than grid size {m}")
    _require_grid_fits(n, grid.dim)
    vectors, sigmas = _joint_eigensystem(grid, tol)
    distinct = dict.fromkeys(sigmas)
    rows = {sigma: np.array(embed_total(sigma, n).image) - 1 for sigma in distinct}
    cols = np.arange(n)
    blocks = np.zeros((n, n, grid.dim, grid.dim), dtype=complex)
    for c, sigma in enumerate(sigmas):
        vec = vectors[:, c]
        blocks[rows[sigma], cols] += np.outer(vec, vec.conj())
    blocks[:m, :m] = grid.blocks
    return _trusted(blocks)


def complete_2x2_to_4x4(grid: ProjGrid, *, tol: float = DEFAULT_TOL) -> ProjGrid:
    """Complete any 2 x 2 submagic grid to a 4 x 4 magic grid.

    With input blocks p, r / s, q, the ambient space splits into the kernel
    of p + q (which supports r and s, completed antidiagonally with
    complements relative to the kernel projection z) and its orthocomplement
    (completed diagonally with complements relative to 1 - z).  The direct
    sum of the two pieces collapses to the closed form below: complements of
    the input's rows and columns fill the off-corner, and p, q, r, s repeat
    in the opposite corner.  A completion larger than ``_GRID_BYTES_LIMIT``
    is refused with :class:`LimitExceeded` first.
    """
    if grid.size != 2:
        raise ValueError(f"expected a 2 x 2 grid, got {grid.size} x {grid.size}")
    _require_grid_fits(4, grid.dim)
    _require_submagic(grid, tol)
    p, r = grid.blocks[0, 0], grid.blocks[0, 1]
    s, q = grid.blocks[1, 0], grid.blocks[1, 1]
    eye = np.eye(grid.dim)
    zeros = np.zeros_like(p)
    blocks = np.array(
        [
            [p, r, eye - p - r, zeros],
            [s, q, zeros, eye - q - s],
            [eye - p - s, zeros, p, s],
            [zeros, eye - q - r, r, q],
        ]
    )
    return _trusted(blocks)


def _require_submagic(grid: ProjGrid, tol: float) -> None:
    """Raise :class:`NotSubmagic` unless :func:`check_grid` certifies the grid
    submagic at ``tol``."""
    report = check_grid(grid, tol)
    if not report.submagic:
        raise NotSubmagic(
            f"input is not submagic at tol {tol}: {report.worst_violations}"
        )


@dataclass(frozen=True)
class SumBoundResult:
    """Outcome of the necessary trace-bound test for completability to size N:
    the total block sum must dominate M - (N - M)."""

    lambda_min: float
    passes: bool


def sum_bound_check(
    grid: ProjGrid, n: int, *, tol: float = DEFAULT_TOL
) -> SumBoundResult:
    """Necessary condition for completing an M x M submagic grid to an N x N
    magic grid: the smallest eigenvalue of the sum of all blocks must be at
    least M - K with K = N - M.  Failure certifies non-completability; a pass
    is only necessary, not sufficient."""
    m = grid.size
    bound = m - (n - m)
    lambda_min = float(np.linalg.eigvalsh(hermitize(grid.total_sum()))[0])
    return SumBoundResult(lambda_min=lambda_min, passes=within(bound - tol, lambda_min))


def random_grid(m: int, d: int, seed: int) -> ProjGrid:
    """Deterministic random submagic grid for M in {1, 2}.

    For M = 2, samples random projections p and q of uniformly random rank,
    then supports the antidiagonal blocks r and s inside the kernel of p + q,
    which is exactly the freedom the submagic relations allow.  Larger grids
    have no generic submagic sampler; build them from Hadamard inputs instead.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    rng = np.random.default_rng(seed)
    if m == 1:
        p = random_projection(d, int(rng.integers(0, d + 1)), rng)
        return _trusted(p[None, None])
    if m == 2:
        p = random_projection(d, int(rng.integers(0, d + 1)), rng)
        q = random_projection(d, int(rng.integers(0, d + 1)), rng)
        basis = kernel_basis(p + q, 1e-9 * d)
        free = basis.shape[1]
        r = np.zeros((d, d), dtype=complex)
        s = np.zeros((d, d), dtype=complex)
        if free:
            r = basis @ random_projection(free, int(rng.integers(0, free + 1)), rng) @ basis.conj().T
            s = basis @ random_projection(free, int(rng.integers(0, free + 1)), rng) @ basis.conj().T
        return _trusted(np.array([[p, r], [s, q]]))
    raise ValueError(f"random submagic sampling is only supported for M in {{1, 2}}, got {m}")


# --------------------------------------------------------------------------
# .pgrid text format:
#
#   pgrid v1
#   M d
#   <M*M blocks in row-major order, each d lines of d '(a,b)' tokens,
#    blocks separated by blank lines>

def parse_pgrid(text: str) -> ProjGrid:
    m, d, rows = read_document(text, "pgrid", lambda m, d: (m * m * d, d))
    tokens = [tok for row in rows for tok in row]
    values = parse_complex_tokens(tokens)
    if values is None:  # a bad token to name, or one outside ASCII
        values = np.array([parse_complex(tok) for tok in tokens], dtype=complex)
    finite = np.isfinite(values)
    if not finite.all():
        token = tokens[int(np.argmin(finite))]
        raise FormatError(f"non-finite complex token {token!r}")
    return _trusted(values.reshape(m, m, d, d))


def format_pgrid(grid: ProjGrid) -> str:
    blocks = grid.blocks.reshape(-1, grid.dim, grid.dim).tolist()
    chunks = [f"pgrid v1\n{grid.size} {grid.dim}"] + [
        "\n".join(" ".join(map(format_complex, row)) for row in block)
        for block in blocks
    ]
    return "\n\n".join(chunks) + "\n"


def read_pgrid(path) -> ProjGrid:
    return parse_pgrid(Path(path).read_text(encoding="utf-8"))
