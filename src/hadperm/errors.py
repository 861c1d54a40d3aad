"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "HadpermError", "FormatError", "SizeMismatch", "LimitExceeded", "NotHadamard",
    "NotSubmagic", "NotCommuting", "NotCompletable", "DegenerateSplit", "RankError",
    "IllConditioned", "TooManyUndefined", "Unsupported", "InvalidSquare",
    "DuplicateInRow", "DuplicateInColumn", "OutOfAlphabet",
]


class HadpermError(Exception):
    """Base class for all package-specific errors."""


class FormatError(HadpermError):
    """Malformed text input (.phm, .pls, .pgrid, or serialized permutations)."""


class SizeMismatch(HadpermError):
    """Operands live on ground sets of different sizes."""


class LimitExceeded(HadpermError):
    """Requested enumeration, closure or pair scan exceeds its configured limit."""


class NotHadamard(HadpermError):
    """Input failed partial Hadamard certification."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NotSubmagic(HadpermError):
    """Grid failed submagic certification."""


class NotCommuting(HadpermError):
    """Grid entries do not pairwise commute within tolerance."""


class NotCompletable(HadpermError):
    """No completion of the requested kind exists.

    ``witness`` carries the obstruction: a defect norm, a modulus profile,
    or the partial permutation with too many undefined points.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class DegenerateSplit(HadpermError):
    """No seeded joint eigenbasis classified within the retry budget."""


class RankError(HadpermError):
    """A grid block does not have the required rank."""


class IllConditioned(HadpermError):
    """A numerical routine cannot certify the requested accuracy."""


class TooManyUndefined(HadpermError):
    """More undefined points than the target total permutation can absorb."""


class Unsupported(HadpermError):
    """Requested parameters are outside the supported range."""


class InvalidSquare(HadpermError):
    """Array is not a valid pre-Latin square."""


class DuplicateInRow(InvalidSquare):
    def __init__(self, row: int):
        super().__init__(f"duplicate entry in row {row}")
        self.row = row


class DuplicateInColumn(InvalidSquare):
    def __init__(self, column: int):
        super().__init__(f"duplicate entry in column {column}")
        self.column = column


class OutOfAlphabet(InvalidSquare):
    def __init__(self, row: int, column: int):
        super().__init__(f"entry at ({row},{column}) is outside the alphabet")
        self.row = row
        self.column = column
