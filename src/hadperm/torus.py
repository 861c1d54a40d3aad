"""Matrices over the unit circle.

Fourier matrices, tensor products, row quotients, partial Hadamard
certification, minor determinants, and the ``.phm`` text format.

Entries carry a dual representation: an exact reduced rational phase p/q
standing for e^(2*pi*i*p/q) whenever the entry is a root of unity, and a
plain unit-modulus complex float otherwise.  Exact entries stay exact under
products, quotients and conjugation, so root-of-unity matrices round-trip
through ``.phm`` files bit-exactly.

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

from ._linalg import DEFAULT_TOL
from .errors import FormatError, IllConditioned

__all__ = [
    "TorusScalar",
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
    "write_phm",
]

# Modulus slack accepted when *constructing* float entries (e.g. parsing
# hand-written decimals).  Certification of matrices uses the caller's tol.
CONSTRUCTION_TOL = 1e-6

_QUARTER_VALUES = (1 + 0j, 1j, -1 + 0j, -1j)
_PHASE_TOKENS = {
    Fraction(0): "1",
    Fraction(1, 2): "-1",
    Fraction(1, 4): "i",
    Fraction(3, 4): "-i",
}
_TOKEN_PHASES = {token: phase for phase, token in _PHASE_TOKENS.items()}
_FRACTION_RE = re.compile(r"[+-]?\d+/\d+\Z")
_PAIR_RE = re.compile(r"\((?P<re>[^,]+),(?P<im>[^,]+)\)\Z")


def _phase_value(phase: Fraction) -> complex:
    # Quarter turns are exact in binary floating point; everything else goes
    # through cos/sin of the reduced angle.
    quarters, rem = divmod(4 * phase.numerator, phase.denominator)
    if rem == 0:
        return _QUARTER_VALUES[quarters % 4]
    angle = 2.0 * math.pi * phase.numerator / phase.denominator
    return complex(math.cos(angle), math.sin(angle))


class TorusScalar:
    """A complex number of modulus one.

    ``phase`` is the reduced fraction p/q (0 <= p < q) with value
    e^(2*pi*i*p/q) for exact scalars and ``None`` for float scalars;
    ``value`` is always the complex realization.  Equality is decidable and
    representation-aware: exact scalars compare by phase, float scalars by
    bit-exact value, and the two representations never compare equal.  Use
    :meth:`isclose` for numeric comparison.
    """

    __slots__ = ("phase", "value")

    def __init__(self, phase: Fraction | None, value: complex):
        self.phase = phase
        self.value = value

    @classmethod
    def from_phase(cls, phase: Fraction | int) -> "TorusScalar":
        frac = Fraction(phase) % 1
        return cls(frac, _phase_value(frac))

    @classmethod
    def from_complex(cls, value: complex, tol: float = CONSTRUCTION_TOL) -> "TorusScalar":
        value = complex(value)
        if abs(abs(value) - 1.0) > tol:
            raise ValueError(f"not unit modulus within {tol}: {value!r}")
        return cls(None, value)

    @property
    def is_exact(self) -> bool:
        return self.phase is not None

    def conjugate(self) -> "TorusScalar":
        if self.phase is not None:
            return TorusScalar.from_phase(-self.phase)
        return TorusScalar(None, self.value.conjugate())

    def __mul__(self, other: "TorusScalar") -> "TorusScalar":
        if self.phase is not None and other.phase is not None:
            return TorusScalar.from_phase(self.phase + other.phase)
        return TorusScalar(None, self.value * other.value)

    def __truediv__(self, other: "TorusScalar") -> "TorusScalar":
        if self.phase is not None and other.phase is not None:
            return TorusScalar.from_phase(self.phase - other.phase)
        return TorusScalar(None, self.value / other.value)

    def __complex__(self) -> complex:
        return self.value

    def isclose(self, other: "TorusScalar", tol: float = DEFAULT_TOL) -> bool:
        return abs(self.value - other.value) <= tol

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusScalar):
            return NotImplemented
        if self.phase is not None and other.phase is not None:
            return self.phase == other.phase
        if self.phase is None and other.phase is None:
            return self.value == other.value
        return False

    def __hash__(self) -> int:
        if self.phase is not None:
            return hash(("exact", self.phase))
        return hash(("float", self.value))

    def token(self) -> str:
        """Canonical ``.phm`` token for this scalar."""
        if self.phase is not None:
            short = _PHASE_TOKENS.get(self.phase)
            if short is not None:
                return short
            return f"{self.phase.numerator}/{self.phase.denominator}"
        return f"({self.value.real!r},{self.value.imag!r})"

    @classmethod
    def from_token(cls, token: str, tol: float = CONSTRUCTION_TOL) -> "TorusScalar":
        phase = _TOKEN_PHASES.get(token)
        if phase is not None:
            return cls.from_phase(phase)
        if _FRACTION_RE.fullmatch(token):
            num, den = token.split("/")
            q = int(den)
            if q < 1:
                raise FormatError(f"denominator must be positive in {token!r}")
            return cls.from_phase(Fraction(int(num), q))
        pair = _PAIR_RE.fullmatch(token)
        if pair:
            try:
                re_part = float(pair.group("re"))
                im_part = float(pair.group("im"))
            except ValueError as exc:
                raise FormatError(f"bad complex token {token!r}") from exc
            try:
                return cls.from_complex(complex(re_part, im_part), tol)
            except ValueError as exc:
                raise FormatError(str(exc)) from exc
        raise FormatError(f"unrecognized scalar token {token!r}")

    def __repr__(self) -> str:
        return f"TorusScalar({self.token()})"


class TorusMatrix:
    """An M x N matrix of unit-modulus entries.

    Immutable after construction.  ``to_complex`` returns a cached read-only
    complex array; ``entries`` holds the scalar objects row by row.
    """

    __slots__ = ("entries", "rows", "cols", "_array")

    def __init__(self, entries: Sequence[Sequence[TorusScalar]]):
        normalized = tuple(tuple(row) for row in entries)
        if not normalized or not normalized[0]:
            raise ValueError("matrix must be nonempty")
        width = len(normalized[0])
        if any(len(row) != width for row in normalized):
            raise ValueError("all rows must have the same length")
        self.entries = normalized
        self.rows = len(normalized)
        self.cols = width
        arr = np.array([[e.value for e in row] for row in normalized], dtype=complex)
        arr.setflags(write=False)
        self._array = arr

    @classmethod
    def from_complex(cls, array, tol: float = CONSTRUCTION_TOL) -> "TorusMatrix":
        arr = np.asarray(array, dtype=complex)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        return cls(
            [[TorusScalar.from_complex(z, tol) for z in row] for row in arr]
        )

    def to_complex(self) -> np.ndarray:
        """Read-only complex view of the matrix."""
        return self._array

    @property
    def is_exact(self) -> bool:
        return all(e.is_exact for row in self.entries for e in row)

    def entry(self, i: int, j: int) -> TorusScalar:
        """Entry at 1-based position (i, j)."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise ValueError(f"index ({i},{j}) out of range")
        return self.entries[i - 1][j - 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusMatrix):
            return NotImplemented
        return self.entries == other.entries

    __hash__ = None  # mutable-feeling value container; compare, don't hash

    def __repr__(self) -> str:
        return f"TorusMatrix({self.rows}x{self.cols}, exact={self.is_exact})"


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
    The result is a square complex Hadamard matrix.
    """
    if not orders:
        raise ValueError("need at least one order")
    for n in orders:
        if int(n) != n or n < 1:
            raise ValueError(f"orders must be positive integers, got {n!r}")
    result = _fourier_single(int(orders[0]))
    for n in orders[1:]:
        result = tensor(result, _fourier_single(int(n)))
    return result


def _fourier_single(n: int) -> TorusMatrix:
    return TorusMatrix(
        [[TorusScalar.from_phase(Fraction(j * k, n)) for k in range(n)] for j in range(n)]
    )


def tensor(h: TorusMatrix, k: TorusMatrix) -> TorusMatrix:
    """Tensor product with lexicographic double indices (h index outer).

    ``(h (x) k)[(i,a), (j,b)] = h[i,j] * k[a,b]``; the tensor product of two
    partial Hadamard matrices is again partial Hadamard.
    """
    rows = []
    for hrow in h.entries:
        for krow in k.entries:
            rows.append([he * ke for he in hrow for ke in krow])
    return TorusMatrix(rows)


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


def row_quotient(h: TorusMatrix, i: int, j: int) -> TorusMatrix:
    """The entrywise quotient of rows i and j (1-based), ``R_i / R_j``, as a
    one-row matrix.

    Exactness is preserved when both rows are exact.
    """
    if not (1 <= i <= h.rows and 1 <= j <= h.rows):
        raise ValueError(f"row indices ({i},{j}) out of range")
    top = h.entries[i - 1]
    bottom = h.entries[j - 1]
    return TorusMatrix([[t / b for t, b in zip(top, bottom)]])


def minor_det(h: TorusMatrix, j: int, *, rel_tol: float = 1e-6) -> complex:
    """Determinant of the square minor obtained by deleting column j (1-based).

    Requires M = N - 1.  Uses pivoted elimination in double precision and
    raises :class:`IllConditioned` when the condition-number based estimate of
    the relative error exceeds ``rel_tol``.
    """
    if h.rows != h.cols - 1:
        raise ValueError(
            f"minor determinants need an (N-1) x N matrix, got {h.rows} x {h.cols}"
        )
    if not 1 <= j <= h.cols:
        raise ValueError(f"column index {j} out of range")
    sub = np.delete(h.to_complex(), j - 1, axis=1)
    n = sub.shape[0]
    s = np.linalg.svd(sub, compute_uv=False)
    eps = float(np.finfo(float).eps)
    if s[-1] <= n * eps * s[0]:
        raise IllConditioned(f"minor without column {j} is numerically singular")
    if n * eps * s[0] / s[-1] > rel_tol:
        raise IllConditioned(
            f"determinant of minor without column {j}: estimated relative error "
            f"{n * eps * s[0] / s[-1]:.3e} exceeds {rel_tol:.3e}"
        )
    return complex(np.linalg.det(sub))


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

def parse_phm(text: str, *, tol: float = CONSTRUCTION_TOL) -> TorusMatrix:
    lines = [ln.strip() for ln in text.splitlines()]
    payload = [ln for ln in lines if ln and not ln.startswith("#")]
    if not payload or payload[0] != "phm v1":
        raise FormatError("expected 'phm v1' header")
    if len(payload) < 2:
        raise FormatError("missing dimension line")
    dims = payload[1].split()
    if len(dims) != 2:
        raise FormatError(f"expected 'M N', got {payload[1]!r}")
    try:
        m, n = int(dims[0]), int(dims[1])
    except ValueError as exc:
        raise FormatError(f"bad dimensions {payload[1]!r}") from exc
    if m < 1 or n < 1:
        raise FormatError("dimensions must be positive")
    body = payload[2:]
    if len(body) != m:
        raise FormatError(f"expected {m} matrix rows, found {len(body)}")
    entries = []
    for line in body:
        tokens = line.split()
        if len(tokens) != n:
            raise FormatError(f"expected {n} tokens per row, got {len(tokens)}")
        entries.append([TorusScalar.from_token(tok, tol) for tok in tokens])
    return TorusMatrix(entries)


def format_phm(h: TorusMatrix) -> str:
    lines = ["phm v1", f"{h.rows} {h.cols}"]
    for row in h.entries:
        lines.append(" ".join(e.token() for e in row))
    return "\n".join(lines) + "\n"


def read_phm(path, *, tol: float = CONSTRUCTION_TOL) -> TorusMatrix:
    return parse_phm(Path(path).read_text(encoding="utf-8"), tol=tol)


def write_phm(path, h: TorusMatrix) -> None:
    Path(path).write_text(format_phm(h), encoding="utf-8")
