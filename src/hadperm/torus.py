"""Matrices over the unit circle.

Fourier matrices, tensor products, row quotients, partial Hadamard
certification, minor determinants, and the ``.phm`` text format.

A :class:`TorusMatrix` is a read-only complex array plus, for each entry that
is a root of unity, its exact reduced phase p/q standing for
e^(2*pi*i*p/q), held in two integer arrays (a denominator of 0 marks a float
entry).  Exact entries stay exact under tensor products and row quotients,
and their values come from the exact phase, so root-of-unity matrices
round-trip through ``.phm`` files bit-exactly.

Inner products are unnormalized and linear in the first argument:
``<x, y> = sum_l x[l] * conj(y[l])``.  Two rows of an M x N partial Hadamard
matrix therefore satisfy ``<R_i, R_i> = N`` and ``<R_i, R_j> = 0`` for
``i != j``.  All row/column arguments and reported indices are 1-based.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from ._linalg import DEFAULT_TOL, one_blas_thread
from ._text import format_complex, parse_complex, parse_complex_tokens, read_document
from .errors import FormatError, IllConditioned, LimitExceeded, NotHadamard

__all__ = [
    "TorusMatrix",
    "HadamardReport",
    "fourier",
    "tensor",
    "is_partial_hadamard",
    "row_quotient",
    "minor_det",
    "parse_phm",
    "format_phm",
    "read_phm",
]

# Modulus slack accepted when *constructing* float entries (e.g. parsing
# hand-written decimals).  Certification of matrices uses the caller's tol.
CONSTRUCTION_TOL = 1e-6

# Complex entries (1 MB) in one stack of minors; more columns go in further
# batches, so that the minor pass needs no memory that grows as N^3.
_MINOR_BATCH = 2**16

# Largest estimated relative error n eps s_max / s_min of a minor determinant.
_MINOR_REL_TOL = 1e-6

# Most entries that fourier or tensor may build, each a complex value and two
# exact integers: F_1024 (2^20 entries, 5-9 s and a 171 MB peak on one core
# of a 2-core x86 box) passes, F_1025 and larger ones are refused.
_ENTRY_LIMIT = 2**20

_QUARTER_VALUES = (1 + 0j, 1j, -1 + 0j, -1j)
_TOKEN_PHASES = {"1": (0, 1), "-1": (1, 2), "i": (1, 4), "-i": (3, 4)}
_PHASE_TOKENS = {phase: token for token, phase in _TOKEN_PHASES.items()}
_FRACTION_RE = re.compile(r"[+-]?\d+/\d+\Z")


def _phase_value(p: int, q: int) -> complex:
    # Quarter turns are exact in binary floating point; everything else goes
    # through cos/sin of the reduced angle.
    quarters, rem = divmod(4 * p, q)
    if rem == 0:
        return _QUARTER_VALUES[quarters % 4]
    angle = 2.0 * math.pi * p / q
    return complex(math.cos(angle), math.sin(angle))


class TorusMatrix:
    """An M x N matrix of unit-modulus entries.

    Immutable.  ``to_complex`` returns the read-only complex array.  An exact
    entry also carries its phase p/q (0 <= p < q, reduced), read with
    :meth:`phase`; a float entry has none.  Equality is representation-aware:
    exact entries compare by phase, float entries by value, and an exact
    entry never equals a float one.  Build with :meth:`from_phases`,
    :meth:`from_complex` or :func:`parse_phm`.
    """

    __slots__ = ("rows", "cols", "_array", "_num", "_den", "_minors")

    def __init__(self, *args, **kwargs):
        raise TypeError(
            "build a TorusMatrix with from_phases, from_complex or parse_phm"
        )

    @classmethod
    def from_phases(cls, phases: Sequence[Sequence[Fraction | int]]) -> "TorusMatrix":
        """The exact matrix with entries e^(2*pi*i*p) for the rational phases
        p (taken mod 1)."""
        rows = [[Fraction(p) for p in row] for row in phases]
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("all rows must have the same length")
        num = np.array([[f.numerator for f in row] for row in rows], dtype=object)
        den = np.array([[f.denominator for f in row] for row in rows], dtype=object)
        return _build(num, den)

    @classmethod
    def from_complex(cls, array) -> "TorusMatrix":
        arr = np.array(array, dtype=complex)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        if arr.size == 0:
            raise ValueError("matrix must be nonempty")
        _check_unit(arr)
        zeros = np.zeros(arr.shape, dtype=object)
        return _trusted(arr, zeros, zeros)

    def to_complex(self) -> np.ndarray:
        """Read-only complex view of the matrix."""
        return self._array

    @property
    def is_exact(self) -> bool:
        return bool((self._den != 0).all())

    def phase(self, i: int, j: int) -> Fraction | None:
        """Exact phase p/q of the entry at 1-based position (i, j), ``None``
        for a float entry."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise ValueError(f"index ({i},{j}) out of range")
        q = self._den[i - 1, j - 1]
        return Fraction(self._num[i - 1, j - 1], q) if q else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusMatrix):
            return NotImplemented
        if self._array.shape != other._array.shape:
            return False
        floats = self._den == 0
        return bool(
            np.array_equal(self._den, other._den)
            and np.array_equal(self._num, other._num)
            and (self._array[floats] == other._array[floats]).all()
        )

    __hash__ = None  # mutable-feeling value container; compare, don't hash

    def __repr__(self) -> str:
        return f"TorusMatrix({self.rows}x{self.cols}, exact={self.is_exact})"


def _trusted(values: np.ndarray, num: np.ndarray, den: np.ndarray) -> TorusMatrix:
    """Wrap arrays this module built and knows to be consistent: a complex
    array, and object arrays of reduced phases num/den (0/0 on float entries)
    whose exact entries have the values ``_phase_value`` gives.  Skips the
    checks of the public constructors."""
    h = object.__new__(TorusMatrix)
    for arr in (values, num, den):
        arr.setflags(write=False)
    h.rows, h.cols = values.shape
    h._array, h._num, h._den = values, num, den
    h._minors = None  # filled by completion._minors
    return h


def _build(
    num: np.ndarray, den: np.ndarray, values: np.ndarray | None = None
) -> TorusMatrix:
    """The matrix of the phases num/den (writable object arrays), whose exact
    entries are reduced here in place.

    Entries with den 0 are float, stay 0/0 and keep their value from the
    writable complex array ``values``; exact entries get theirs from one
    cos/sin per distinct phase.
    """
    if values is None:
        values = np.empty(den.shape, dtype=complex)
    exact = den != 0
    if exact.any():
        p, q = num[exact], den[exact]
        g = np.gcd(p, q)
        p, q = p // g, q // g
        p %= q
        num[exact], den[exact] = p, q
        # q*q + p is one integer per reduced phase, as 0 <= p < q
        _, first, inverse = np.unique(q * q + p, return_index=True, return_inverse=True)
        pairs = zip(p[first].tolist(), q[first].tolist())
        table = [_phase_value(a, b) for a, b in pairs]
        values[exact] = np.array(table, dtype=complex)[inverse]
    return _trusted(values, num, den)


def _check_unit(arr: np.ndarray) -> None:
    # Written so that NaN fails: every comparison with NaN is False.
    bad = ~(np.abs(np.abs(arr) - 1.0) <= CONSTRUCTION_TOL)
    if bad.any():
        value = complex(arr[np.unravel_index(int(np.argmax(bad)), bad.shape)])
        raise ValueError(f"not unit modulus within {CONSTRUCTION_TOL}: {value!r}")


def _stack(h: TorusMatrix, rows) -> TorusMatrix:
    """``h`` with the float ``rows`` appended, checked for unit modulus as
    :meth:`TorusMatrix.from_complex` checks them (ValueError otherwise)."""
    rows = np.array(rows, dtype=complex)
    _check_unit(rows)
    zeros = np.zeros(rows.shape, dtype=object)
    return _trusted(
        np.vstack([h._array, rows]),
        np.vstack([h._num, zeros]),
        np.vstack([h._den, zeros]),
    )


@dataclass(frozen=True)
class HadamardReport:
    """Result of partial Hadamard certification.

    ``worst_pair`` is the 1-based row pair with the largest off-diagonal
    inner product magnitude (``None`` when M = 1) and ``worst_value`` that
    magnitude.  ``worst_entry``/``worst_modulus_error`` locate the entry
    deviating most from unit modulus.
    """

    ok: bool
    worst_pair: tuple[int, int] | None
    worst_value: float
    worst_entry: tuple[int, int]
    worst_modulus_error: float


def fourier(orders: Sequence[int]) -> TorusMatrix:
    """Tensor product of Fourier matrices F_{n1} (x) ... (x) F_{nk}.

    F_n has entries e^(2*pi*i*j*k/n) with 0-based j, k; every entry is exact.
    The result is a square complex Hadamard matrix.  One with more than
    ``_ENTRY_LIMIT`` entries is refused with :class:`LimitExceeded` first.
    """
    if not orders:
        raise ValueError("need at least one order")
    for n in orders:
        if int(n) != n or n < 1:
            raise ValueError(f"orders must be positive integers, got {n!r}")
    if math.prod(int(n) for n in orders) ** 2 > _ENTRY_LIMIT:
        raise LimitExceeded(
            f"Fourier matrix of orders {list(orders)} exceeds the limit of "
            f"{_ENTRY_LIMIT} entries"
        )
    result = _fourier_single(int(orders[0]))
    for n in orders[1:]:
        result = tensor(result, _fourier_single(int(n)))
    return result


def _fourier_single(n: int) -> TorusMatrix:
    r = np.arange(n, dtype=object)
    return _build(np.outer(r, r), np.full((n, n), n, dtype=object))


def tensor(h: TorusMatrix, k: TorusMatrix) -> TorusMatrix:
    """Tensor product with lexicographic double indices (h index outer).

    ``(h (x) k)[(i,a), (j,b)] = h[i,j] * k[a,b]``; the tensor product of two
    partial Hadamard matrices is again partial Hadamard.  Phases add where
    both entries are exact; the other entries multiply as complex floats.
    A product of more than ``_ENTRY_LIMIT`` entries is refused with
    :class:`LimitExceeded` first.
    """
    entries = h.rows * h.cols * k.rows * k.cols
    if entries > _ENTRY_LIMIT:
        raise LimitExceeded(
            f"tensor product of a {h.rows} x {h.cols} and a {k.rows} x {k.cols} "
            f"matrix has {entries} entries, above the limit {_ENTRY_LIMIT}"
        )
    return _build(
        np.kron(h._num, k._den) + np.kron(h._den, k._num),
        np.kron(h._den, k._den),
        np.kron(h._array, k._array),
    )


def is_partial_hadamard(h: TorusMatrix, tol: float = DEFAULT_TOL) -> HadamardReport:
    """Certify pairwise row orthogonality and unit modulus of all entries.

    Rows i != j must satisfy ``|<R_i, R_j>| <= tol * N``; entry moduli must be
    within ``tol`` of 1.  A single-row matrix is trivially partial Hadamard.
    """
    a = h.to_complex()
    m, n = a.shape

    mod_err = np.abs(np.abs(a) - 1.0)
    e_i, e_j = np.unravel_index(int(np.argmax(mod_err)), mod_err.shape)
    worst_entry = (int(e_i) + 1, int(e_j) + 1)
    worst_mod = float(mod_err[e_i, e_j])

    if m == 1:
        worst_pair = None
        worst_value = 0.0
    else:
        gram = np.abs(a @ a.conj().T)
        np.fill_diagonal(gram, -np.inf)
        p_i, p_j = (int(v) for v in np.unravel_index(int(np.argmax(gram)), gram.shape))
        worst_value = float(gram[p_i, p_j])
        worst_pair = (min(p_i, p_j) + 1, max(p_i, p_j) + 1)

    ok = worst_mod <= tol and worst_value <= tol * n
    return HadamardReport(ok, worst_pair, worst_value, worst_entry, worst_mod)


def _require_hadamard(h: TorusMatrix, tol: float) -> None:
    """Raise :class:`NotHadamard`, naming the worst row pair and modulus
    error, unless ``h`` is partial Hadamard at ``tol``."""
    report = is_partial_hadamard(h, tol)
    if not report.ok:
        raise NotHadamard(
            f"not partial Hadamard at tol {tol}: worst row pair {report.worst_pair} "
            f"has |<R_i,R_j>| = {report.worst_value:.3e}, worst modulus error "
            f"{report.worst_modulus_error:.3e}"
        )


def row_quotient(h: TorusMatrix, i: int, j: int) -> TorusMatrix:
    """The entrywise quotient of rows i and j (1-based), ``R_i / R_j``, as a
    one-row matrix.

    Exactness is preserved when both rows are exact.
    """
    if not (1 <= i <= h.rows and 1 <= j <= h.rows):
        raise ValueError(f"row indices ({i},{j}) out of range")
    a, b = i - 1, j - 1
    return _build(
        (h._num[a] * h._den[b] - h._num[b] * h._den[a])[None],
        (h._den[a] * h._den[b])[None],
        (h._array[a] / h._array[b])[None],
    )


def minor_det(h: TorusMatrix, j: int) -> complex:
    """Determinant of the square minor obtained by deleting column j (1-based).

    Requires M = N - 1.  A one-column call of the batched minor pass that
    the completion tests use: pivoted elimination in double precision, with
    :class:`IllConditioned` raised when the condition-number based estimate
    of the relative error exceeds 1e-6 or the determinant is not a finite
    double.  For a partial Hadamard input every minor has singular values
    sqrt(N) (N - 2 times) and 1, so its condition number is sqrt(N); the
    many-column pass certifies that from one eigendecomposition of HH*, but
    a lone minor takes its SVD, which costs about as much.
    """
    if h.rows != h.cols - 1:
        raise ValueError(
            f"minor determinants need an (N-1) x N matrix, got {h.rows} x {h.cols}"
        )
    if not 1 <= j <= h.cols:
        raise ValueError(f"column index {j} out of range")
    return complex(_minor_dets(h.to_complex(), [j])[0])


def _minor_dets(a: np.ndarray, cols: Sequence[int]) -> np.ndarray:
    """Determinants of the minors of the (N-1) x N array ``a`` without each
    of the ascending 1-based columns ``cols``.

    The minors are taken in batches whose stack holds at most
    ``_MINOR_BATCH`` entries, each in its own call so that its stack is freed
    before the next is formed.  Raises :class:`IllConditioned` for the first
    column whose minor is numerically singular, whose estimated relative
    error ``n eps s_max / s_min`` exceeds ``_MINOR_REL_TOL``, or whose
    determinant is not a finite double (from N = 258 for unit-modulus
    entries, whose minors have modulus N^(N/2-1)).

    The minor without column c_j has Gram matrix HH* - c_j c_j*; for a
    partial Hadamard H that is N I - c_j c_j*, with singular values sqrt(N)
    (N - 2 times) and 1.  A call of more than one column bounds every
    minor's singular values from one eigendecomposition of HH*
    (:func:`_conditioned_columns`), and only the minors it cannot clear take
    an SVD.
    """
    n = a.shape[0]
    dropped = np.asarray(cols, dtype=np.intp) - 1
    # the bound costs about one SVD, so a lone minor takes its SVD alone
    if len(dropped) > 1:
        cleared = _conditioned_columns(a)[dropped]
    else:
        cleared = np.zeros(len(dropped), dtype=bool)
    step = max(1, _MINOR_BATCH // (n * n))
    out = np.empty(len(dropped), dtype=complex)
    for start in range(0, len(dropped), step):
        batch = slice(start, start + step)
        out[batch] = _minor_batch(a, dropped[batch], cleared[batch])
    return out


def _conditioned_columns(a: np.ndarray) -> np.ndarray:
    """For each column c_j of the (N-1) x N array ``a``, whether the minor
    without it provably passes the SVD test of :func:`_minor_batch`.

    With G = aa*, the minor's Gram matrix is G - c_j c_j*, so by Weyl's
    inequality its singular values satisfy s_max^2 <= lambda_max(G) and
    s_min^2 >= lambda_min(G) - |c_j|^2.  Column j is cleared when, with n =
    N - 1 and ``slack`` below, lo_j = lambda_min - |c_j|^2 - slack > 0 and
    n eps sqrt((lambda_max + slack) / lo_j) <= rel_tol / 2.

    ``slack`` bounds every rounding between a and the computed lo_j, each
    by eps times F = |a|_F^2, which is at least |G|_2 and |c_j|^2:
    - the entries of G are complex inner products of length N, off by at
      most (N + 2) eps sum_l |a_il| |a_kl|, so G is off by at most
      (N + 2) eps F in the 2-norm, and so is the Hermitian matrix that
      ``eigvalsh`` reads from G's lower triangle;
    - ``eigvalsh`` is backward stable: its eigenvalues are off by at most
      about n eps |G|_2 <= n eps F;
    - each |c_j|^2 sums n squared moduli, off by at most (n + 2) eps F;
    - forming lo_j and F costs a few more roundings of at most eps F each.
    That is (N + 2n + 8) eps F, doubled; the last term, N n times the
    smallest normal double, bounds what underflow adds.

    A cleared minor has s_min >= 2e6 n eps s_max, so LAPACK's singular
    values, off by a small multiple of n eps s_max, still give an estimate
    below rel_tol: the factor 2 covers that error.  Nothing is cleared when
    G or the norms are not finite or ``eigvalsh`` does not converge.
    """
    n, m = a.shape
    eps = float(np.finfo(float).eps)
    none = np.zeros(m, dtype=bool)
    with np.errstate(all="ignore"):
        gram = a @ a.conj().T
        norms = (a.real**2 + a.imag**2).sum(axis=0)
        if not (np.isfinite(gram).all() and np.isfinite(norms).all()):
            return none
        try:
            lam = np.linalg.eigvalsh(gram)
        except np.linalg.LinAlgError:
            return none
        frob = norms.sum()
        slack = 2 * (m + 2 * n + 8) * eps * frob + n * m * float(np.finfo(float).tiny)
        lo = lam[0] - norms - slack
        return (lo > 0) & (
            n * eps * np.sqrt((lam[-1] + slack) / lo) <= _MINOR_REL_TOL / 2
        )


def _minor_batch(a: np.ndarray, dropped: np.ndarray, cleared: np.ndarray) -> np.ndarray:
    """One batch of :func:`_minor_dets`, by 0-based dropped columns, of which
    those marked ``cleared`` are known to pass the SVD test.

    The minors are gathered by an index array into one (k, n, n) stack that
    takes one ``det`` call, and its uncleared minors one SVD call; the
    gufuncs run LAPACK on every matrix alone, so each value is the one a
    lone minor gives.  The ``det`` call runs on one BLAS thread
    (:func:`~hadperm._linalg.one_blas_thread`): from N = 128 its last bits
    would otherwise depend on the thread count.
    """
    rel_tol = _MINOR_REL_TOL
    eps = float(np.finfo(float).eps)
    n = a.shape[0]
    kept = np.arange(n)
    # stack[b, r, c] = a[r, c] left of the dropped column, a[r, c + 1] from it on
    stack = a[kept[:, None], (kept + (kept >= dropped[:, None]))[:, None, :]]
    singular = np.zeros(len(dropped), dtype=bool)
    error = np.zeros(len(dropped))
    checked = ~cleared
    if checked.any():
        s = np.linalg.svd(stack if checked.all() else stack[checked], compute_uv=False)
        s_max, s_min = s[:, 0], s[:, -1]
        singular[checked] = s_min <= n * eps * s_max
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            error[checked] = n * eps * s_max / s_min
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"), one_blas_thread():
        det = np.linalg.det(stack)
    failing = singular | (error > rel_tol) | ~np.isfinite(det)
    if failing.any():
        b = int(np.argmax(failing))
        j = int(dropped[b]) + 1
        if singular[b]:
            raise IllConditioned(f"minor without column {j} is numerically singular")
        if error[b] > rel_tol:
            raise IllConditioned(
                f"determinant of minor without column {j}: estimated relative error "
                f"{error[b]:.3e} exceeds {rel_tol:.3e}"
            )
        raise IllConditioned(f"determinant of minor without column {j} is not a finite double")
    return det


# --------------------------------------------------------------------------
# .phm text format
#
#   phm v1
#   M N
#   <M lines of N whitespace-separated tokens>
#
# Tokens: p/q -> e^(2*pi*i*p/q); shorthands 1, -1, i, -i; (a,b) -> a+bi.
# Lines starting with '#' are comments.  Writing a parsed matrix reproduces
# the canonical token of every entry bit-exactly.

def parse_phm(text: str) -> TorusMatrix:
    text = "\n".join(ln for ln in text.splitlines() if not ln.lstrip().startswith("#"))
    m, n, rows = read_document(text, "phm", lambda m, n: (m, n))
    tokens = [tok for row in rows for tok in row]
    values = parse_complex_tokens(tokens)
    per_token = values is None  # exact tokens, or a bad one to name
    if per_token:
        nums, dens, values = zip(*map(_parse_token, tokens))
        values = np.array(values, dtype=complex)
    values = values.reshape(m, n)
    try:
        _check_unit(values)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    if not per_token:
        zeros = np.zeros((m, n), dtype=object)
        return _trusted(values, zeros, zeros)
    return _build(
        np.array(nums, dtype=object).reshape(m, n),
        np.array(dens, dtype=object).reshape(m, n),
        values,
    )


def _parse_token(token: str) -> tuple[int, int, complex]:
    """(p, q, 1) for an exact token, (0, 0, value) for a float one; the 1
    passes the modulus check and ``_build`` replaces it."""
    phase = _TOKEN_PHASES.get(token)
    if phase is not None:
        return phase[0], phase[1], 1
    if token.startswith("("):
        return 0, 0, parse_complex(token)
    if _FRACTION_RE.fullmatch(token):
        num, den = token.split("/")
        q = int(den)
        if q < 1:
            raise FormatError(f"denominator must be positive in {token!r}")
        return int(num), q, 1
    raise FormatError(f"unrecognized scalar token {token!r}")


def format_phm(h: TorusMatrix) -> str:
    lines = ["phm v1", f"{h.rows} {h.cols}"]
    for nums, dens, values in zip(h._num.tolist(), h._den.tolist(), h._array.tolist()):
        lines.append(
            " ".join(
                (_PHASE_TOKENS.get((p, q)) or f"{p}/{q}") if q else format_complex(z)
                for p, q, z in zip(nums, dens, values)
            )
        )
    return "\n".join(lines) + "\n"


def read_phm(path) -> TorusMatrix:
    return parse_phm(Path(path).read_text(encoding="utf-8"))
