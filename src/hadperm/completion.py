"""Completion theory for (N-1) x N partial Hadamard matrices.

The rows of such a matrix leave a one-dimensional orthogonal complement,
spanned by the cofactor vector Z with Z_j = (-1)^j * conj(det H^(j)), where
H^(j) drops column j (j is 1-based, matching the sign convention that makes
the N = 2 case complete to a valid Hadamard matrix).  The matrix completes to
an N x N complex Hadamard matrix exactly when the minor moduli |det H^(j)|
are constant in j, in which case they all equal N^(N/2 - 1) and the missing
row is ``(-1)^j * N^(1 - N/2) * conj(det H^(j))``.

Two further tests decide whether the associated rank-one projection grid
completes to a magic grid: the Gram test (``G - (N-2)`` must be a projection,
where G collects squared column inner products over N) and the weighted test
(``H D H* = c`` with D the diagonal of |Z_j|^2).  Whether all these
conditions are mutually equivalent is empirically probed, never assumed:
:func:`criteria` runs the modulus, Gram and weighted tests together with the
border test of the grid (is its corner block a projection), and is the one
place where the four votes are assembled.  The border test needs no grid:
its corner, the sum of all blocks less (M-1), comes from the row quotients
and their reciprocals in two N x N products.

For unit-modulus entries 1/a = conj(a), so in exact arithmetic the border
corner equals the Gram test's ``Q = G - (N-2)``: the border and Gram votes
are one predicate computed two ways, and their agreement (acceptance
criterion 5) is a numerical cross-check, not a check of two independent
tests.  So the border corner keeps the reciprocals 1/H and never
substitutes conj(H) for them.

Every public call computes the N minors once, in one batched pass (one
determinant call per stack of minors, and one stack for every N <= 40), and
the tests that need them share that pass.  The pass certifies each minor's
conditioning from one eigendecomposition of HH*: the minors of a partial
Hadamard H have singular values sqrt(N) (N - 2 times) and 1, and only the
minors that bound cannot clear take an SVD.

Every test is scale-free, so each one reads the cofactor vector at unit
scale: the completing row ``u = N^(1 - N/2) * Z``, whose entries have modulus
1 exactly when H completes.  Tolerances are absolute on u and relative on
the weighted test's ``sum |u_j|^2``; no test raises N to a positive power,
so the tests are decided at every N whose minors are finite doubles
(N <= 257 for unit-modulus input).  The reported minor moduli and the
weighted ``c`` stay at the raw scale of Z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import torus
from ._linalg import DEFAULT_TOL, spectral_norm
from .errors import IllConditioned, NotCompletable
from .torus import TorusMatrix

__all__ = [
    "CriteriaReport",
    "ModulusProfile",
    "WeightedResult",
    "kernel_vector",
    "modulus_profile",
    "complete_row",
    "gram_criterion",
    "weighted_criterion",
    "criteria",
]


@dataclass(frozen=True)
class ModulusProfile:
    """Minor determinant moduli |det H^(j)| and the two derived flags, both
    decided on the unit moduli |det H^(j)| * N^(1-N/2): ``constant`` (they
    agree within tol, equivalent to completability) and ``hadamard_value``
    (they all sit within tol of 1)."""

    moduli: tuple[float, ...]
    constant: bool
    hadamard_value: bool


@dataclass(frozen=True)
class WeightedResult:
    """Outcome of the weighted column test: ``H D H*`` must be a multiple of
    the identity, with D the squared moduli of the completing row.

    ``c`` is the total squared kernel mass ``sum |Z_j|^2`` (``inf`` from
    N = 144, where it overflows a double); ``deviation`` is the spectral
    norm of ``H D H* - c' I`` over ``c' = sum |u_j|^2``, which is
    scale-free."""

    passes: bool
    c: float
    deviation: float


@dataclass(frozen=True)
class CriteriaReport:
    """The four completion tests of one (N-1) x N matrix: the modulus profile,
    the Gram flag, the weighted test and ``border``, whether the associated
    grid completes by :func:`~hadperm.submagic.complete_last`."""

    profile: ModulusProfile
    gram: bool
    weighted: WeightedResult
    border: bool

    @property
    def votes(self) -> dict[str, bool]:
        return {
            "modulus_constant": self.profile.constant,
            "gram": self.gram,
            "weighted": self.weighted.passes,
            "complete_last": self.border,
        }


def _require_shape(h: TorusMatrix) -> int:
    if h.rows != h.cols - 1:
        raise ValueError(
            f"completion theory needs an (N-1) x N matrix, got {h.rows} x {h.cols}"
        )
    return h.cols


def _minors(h: TorusMatrix) -> np.ndarray:
    """All minor determinants det H^(j), j = 1..N."""
    n = _require_shape(h)
    return torus._minor_dets(h.to_complex(), range(1, n + 1))


def _cofactors(minors: np.ndarray) -> np.ndarray:
    """Z_j = (-1)^j * conj(det H^(j))."""
    return (-1.0) ** np.arange(1, len(minors) + 1) * minors.conj()


def _kernel(h: TorusMatrix, minors: np.ndarray, tol: float) -> np.ndarray:
    """The completing row ``u = N^(1-N/2) * Z``, checked against every row
    but without the partial Hadamard precondition check."""
    n = h.cols
    u = n ** (1.0 - n / 2.0) * _cofactors(minors)
    # The cofactor identity makes <R_i, Z> an N x N determinant with a
    # repeated row, hence zero; deviations beyond rounding mean the minor
    # determinants themselves are unreliable.  Written so that NaN fails.
    residual = float(np.abs(h.to_complex() @ u.conj()).max())
    allowance = max(tol, 1e3 * np.finfo(float).eps) * n
    if not residual <= allowance:
        raise IllConditioned(
            f"kernel vector fails row orthogonality: residual {residual:.3e} "
            f"exceeds {allowance:.3e}"
        )
    return u


def kernel_vector(h: TorusMatrix, *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Cofactor vector Z of a certified (N-1) x N partial Hadamard matrix.

    ``Z_j = (-1)^j * conj(det H^(j))``, so ``|Z_j| = |det H^(j)|``;
    orthogonality against every row is verified internally on the unit-scale
    row ``N^(1-N/2) * Z``.
    """
    torus._require_hadamard(h, tol)
    minors = _minors(h)
    _kernel(h, minors, tol)
    return _cofactors(minors)


def modulus_profile(h: TorusMatrix, tol: float = DEFAULT_TOL) -> ModulusProfile:
    """Report all |det H^(j)| together with the constancy flags.

    ``constant`` is the completability test; ``hadamard_value`` additionally
    pins the common value at N^(N/2-1).  Both compare the unit moduli
    |det H^(j)| * N^(1-N/2) at ``tol``.
    """
    return _profile(_minors(h), tol)


def _profile(minors: np.ndarray, tol: float) -> ModulusProfile:
    n = len(minors)
    moduli = np.abs(minors)
    unit = moduli * n ** (1.0 - n / 2.0)
    return ModulusProfile(
        moduli=tuple(float(v) for v in moduli),
        constant=bool(unit.max() - unit.min() <= tol),
        hadamard_value=bool(np.abs(unit - 1.0).max() <= tol),
    )


def complete_row(h: TorusMatrix, *, tol: float = DEFAULT_TOL) -> TorusMatrix:
    """Append the unique completing row to an (N-1) x N partial Hadamard
    matrix: ``H[N, j] = (-1)^j * N^(1 - N/2) * conj(det H^(j))``.

    Requires a constant modulus profile; the profile travels on the
    :class:`NotCompletable` witness otherwise.  Existing rows are preserved
    bit-exactly; the appended row is float, so the result is a float matrix.
    """
    minors = _minors(h)
    profile = _profile(minors, tol)
    if not profile.constant:
        raise NotCompletable(
            f"minor moduli are not constant: {profile.moduli}", witness=profile
        )
    row = _kernel(h, minors, tol)
    try:
        return torus._stack(h, row[None, :])
    except ValueError as exc:
        raise NotCompletable(
            f"appended row is not unit-modulus: {exc}", witness=profile
        ) from exc


def gram_criterion(h: TorusMatrix, tol: float = DEFAULT_TOL) -> bool:
    """Projection test on the column Gram data.

    With ``G[k, l] = |<C_k, C_l>|^2 / N`` built from the columns of H, the
    associated rank-one grid completes to a magic grid exactly when
    ``Q = G - (N-2)`` is a projection; this checks ``||Q^2 - Q|| <= tol``.
    """
    n = _require_shape(h)
    a = h.to_complex()
    gram = np.abs(a.conj().T @ a) ** 2 / n
    q = gram - (n - 2) * np.eye(n)
    return bool(spectral_norm(q @ q - q) <= tol)


def weighted_criterion(h: TorusMatrix, tol: float = DEFAULT_TOL) -> WeightedResult:
    """Weighted column test: ``H D H* = c`` with ``D = diag(|Z_j|^2)``.

    c is the total squared kernel mass ``sum_k |Z_k|^2``.  The test runs at
    unit scale, on ``D' = diag(|u_j|^2)`` and ``c' = sum_k |u_k|^2`` for the
    completing row u, and passes when ``||H D' H* - c'|| <= tol * c'``.
    Equivalent to completability of the associated grid, like the Gram test.
    """
    return _weighted(h, _minors(h), tol)


def _weighted(h: TorusMatrix, minors: np.ndarray, tol: float) -> WeightedResult:
    weights = np.abs(_kernel(h, minors, tol)) ** 2
    mass = float(weights.sum())
    a = h.to_complex()
    norm = spectral_norm((a * weights) @ a.conj().T - mass * np.eye(h.rows))
    with np.errstate(over="ignore"):
        c = float((np.abs(minors) ** 2).sum())
    return WeightedResult(passes=bool(norm <= tol * mass), c=c, deviation=norm / mass)


def criteria(h: TorusMatrix, tol: float = DEFAULT_TOL) -> CriteriaReport:
    """Run the modulus, Gram, weighted and border-completion tests on one
    (N-1) x N matrix, computing its minors once.

    The input is certified partial Hadamard at the loose ``max(tol, 0.1)``,
    the level at which its grid would be built, so that perturbed (not quite
    partial Hadamard) inputs still reach the border test.  That vote is
    whether the corner ``sum of all blocks - (M-1)`` of the grid's border
    completion is a projection at ``tol``, the condition under which
    :func:`~hadperm.submagic.complete_last` succeeds.  Neither the grid nor
    its completion is built: the block sum
    ``sum_ij (R_i/R_j)(R_i/R_j)* / N`` factors into
    ``(A^T conj(A)) o (B^T conj(B)) / N`` with ``B = 1/A`` entrywise.
    Errors surface in the order minors, Gram, kernel residual, certification.
    """
    minors = _minors(h)
    profile = _profile(minors, tol)
    gram = gram_criterion(h, tol)
    weighted = _weighted(h, minors, tol)
    torus._require_hadamard(h, max(tol, 0.1))
    a = h.to_complex()
    b = 1.0 / a
    corner = (a.T @ a.conj()) * (b.T @ b.conj()) / h.cols - (h.rows - 1) * np.eye(h.cols)
    return CriteriaReport(profile=profile, gram=gram, weighted=weighted,
                          border=spectral_norm(corner @ corner - corner) <= tol)
