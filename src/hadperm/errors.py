"""Exception types shared across the package.

Every error is one of three families, each named for the command-line exit
code it ends in: :class:`CriterionFailure` (1), :class:`UsageError` (2) and
:class:`NumericalFailure` (3).
"""

from __future__ import annotations

__all__ = [
    "HadpermError", "CriterionFailure", "UsageError", "NumericalFailure",
    "NotHadamard", "NotSubmagic", "NotCommuting", "NotCompletable", "RankError",
    "FormatError", "LimitExceeded", "InvalidSquare",
    "IllConditioned", "DegenerateSplit",
]


class HadpermError(Exception):
    """Base class for all package-specific errors."""


class CriterionFailure(HadpermError):
    """The input fails a criterion, or has no completion of the kind asked."""


class UsageError(HadpermError):
    """The input or the request is refused before any answer is computed."""


class NumericalFailure(HadpermError):
    """Double-precision numerics cannot certify the answer."""


class NotHadamard(CriterionFailure):
    """Input failed partial Hadamard certification."""


class NotSubmagic(CriterionFailure):
    """Grid failed submagic certification."""


class NotCommuting(CriterionFailure):
    """Grid entries do not pairwise commute within tolerance."""


class NotCompletable(CriterionFailure):
    """No completion of the requested kind exists.

    ``witness`` carries the obstruction: a defect norm, a modulus profile,
    or the partial permutation with too many undefined points.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class RankError(CriterionFailure):
    """A grid block does not have the required rank."""


class FormatError(UsageError):
    """Malformed text input (.phm, .pls, .pgrid, or serialized permutations)."""


class LimitExceeded(UsageError):
    """Requested enumeration, closure, pair scan or array exceeds its limit."""


class InvalidSquare(UsageError):
    """Array is not a valid pre-Latin square."""


class IllConditioned(NumericalFailure):
    """A numerical routine cannot certify the requested accuracy."""


class DegenerateSplit(NumericalFailure):
    """No seeded joint eigenbasis classified within the retry budget."""
