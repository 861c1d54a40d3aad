"""Pre-Latin squares and the partial permutations they induce.

A pre-Latin square is an M x M array over the alphabet {1, ..., N} whose
entries are distinct within each row and within each column (distinctness
forces M <= N; Latin squares are the M = N case).  Each alphabet value x
induces the partial permutation sigma_x with sigma_x(j) = i exactly when the
(i, j) entry equals x; the square's semigroup is generated by sigma_1 through
sigma_N.  The alphabet size is carried explicitly: values that never occur in
the square contribute the empty map as a generator.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from ._text import read_document
from .errors import FormatError, InvalidSquare
from .pperm import PartialPermutation, Semigroup, generate_semigroup

__all__ = [
    "PreLatinSquare",
    "sigma_of",
    "semigroup_of",
    "parse_pls",
    "read_pls",
]


class PreLatinSquare:
    """A validated M x M square over {1, ..., alphabet}.

    Construction raises :class:`InvalidSquare` naming the first offending
    position: an entry outside the alphabet, or a row or column repeat.
    """

    __slots__ = ("size", "alphabet", "entries")

    def __init__(self, entries: Sequence[Sequence[int]], alphabet: int):
        rows = tuple(tuple(int(v) for v in row) for row in entries)
        m = len(rows)
        if m == 0:
            raise ValueError("square must be nonempty")
        if alphabet < 1:
            raise ValueError("alphabet size must be positive")
        # report content problems (alphabet, repeats) before the shape
        # requirement, so a malformed row is named rather than rejected
        for i, row in enumerate(rows, start=1):
            for j, v in enumerate(row, start=1):
                if not 1 <= v <= alphabet:
                    raise InvalidSquare(f"entry at ({i},{j}) is outside the alphabet")
            if len(set(row)) != len(row):
                raise InvalidSquare(f"duplicate entry in row {i}")
        if any(len(row) != m for row in rows):
            raise ValueError("entries must form a square array")
        for j in range(m):
            column = [rows[i][j] for i in range(m)]
            if len(set(column)) != m:
                raise InvalidSquare(f"duplicate entry in column {j + 1}")
        self.size = m
        self.alphabet = alphabet
        self.entries = rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, PreLatinSquare):
            return NotImplemented
        return self.alphabet == other.alphabet and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.alphabet, self.entries))

    def __repr__(self) -> str:
        return f"PreLatinSquare(size={self.size}, alphabet={self.alphabet})"


def sigma_of(square: PreLatinSquare, x: int) -> PartialPermutation:
    """The partial permutation induced by alphabet value x:
    sigma_x(j) = i exactly when the (i, j) entry equals x.

    Well-defined by column distinctness; a value absent from the square gives
    the empty map.
    """
    if not 1 <= x <= square.alphabet:
        raise ValueError(f"value {x} outside alphabet 1..{square.alphabet}")
    m = square.size
    img = [0] * m
    for j in range(m):
        for i in range(m):
            if square.entries[i][j] == x:
                img[j] = i + 1
                break
    return PartialPermutation(img)


def semigroup_of(square: PreLatinSquare) -> Semigroup:
    """Closure of {sigma_x : 1 <= x <= alphabet} under composition.

    Only the values present in the square are visited, so the work does not
    grow with the alphabet: distinct present values give distinct nonempty
    maps, and every absent value gives the same empty map, which enters the
    generators once, at the first absent value.
    """
    present = sorted({v for row in square.entries for v in row})
    gens = [sigma_of(square, x) for x in present]
    if len(present) < square.alphabet:
        # values 1..gap are all present, so gap + 1 is the first absent one
        gap = next((k for k, x in enumerate(present) if x != k + 1), len(present))
        gens.insert(gap, PartialPermutation.empty(square.size))
    return generate_semigroup(gens)


# --------------------------------------------------------------------------
# .pls text format:
#
#   pls v1
#   M N
#   <M rows of M integers>

def parse_pls(text: str) -> PreLatinSquare:
    m, alphabet, rows = read_document(text, "pls", lambda m, n: (m, m))
    try:
        entries = [[int(tok) for tok in row] for row in rows]
    except ValueError as exc:
        raise FormatError(f"bad entry: {exc}") from exc
    return PreLatinSquare(entries, alphabet)


def read_pls(path) -> PreLatinSquare:
    return parse_pls(Path(path).read_text(encoding="utf-8"))
