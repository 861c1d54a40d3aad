"""The text grammar shared by the ``.phm``, ``.pls`` and ``.pgrid`` formats.

    <tag> v1
    <two positive integer sizes>
    <rows of whitespace-separated tokens>

Blank lines are skipped everywhere.  A format fixes the row count and the
tokens per row from the two sizes; a float token is written ``(a,b)`` for
a + bi, with both parts in ``repr`` form so that it reads back bit-exactly.
"""

from __future__ import annotations

from typing import Callable

from .errors import FormatError


def read_document(
    text: str, tag: str, shape: Callable[[int, int], tuple[int, int]]
) -> tuple[int, int, list[list[str]]]:
    """The sizes ``(m, n)`` and the token rows of a ``<tag> v1`` document.

    ``shape(m, n)`` gives the number of rows and the tokens per row.  Raises
    :class:`FormatError` on a wrong header, a missing or malformed sizes line,
    a size below 1, or a wrong row or token count.
    """
    lines = [line for line in (raw.strip() for raw in text.splitlines()) if line]
    if not lines or lines[0] != f"{tag} v1":
        raise FormatError(f"expected '{tag} v1' header")
    if len(lines) < 2:
        raise FormatError("missing sizes line")
    try:
        m, n = map(int, lines[1].split())
    except ValueError as exc:
        raise FormatError(f"expected two integer sizes, got {lines[1]!r}") from exc
    if m < 1 or n < 1:
        raise FormatError(f"sizes must be positive, got {lines[1]!r}")
    count, width = shape(m, n)
    rows = [line.split() for line in lines[2:]]
    if len(rows) != count:
        raise FormatError(f"expected {count} rows, found {len(rows)}")
    for k, row in enumerate(rows, start=1):
        if len(row) != width:
            raise FormatError(f"expected {width} tokens in row {k}, got {len(row)}")
    return m, n, rows


def parse_complex(token: str) -> complex:
    """The value a + bi of an ``(a,b)`` token."""
    re_part, comma, im_part = token[1:-1].partition(",")
    if not (token.startswith("(") and token.endswith(")") and comma):
        raise FormatError(f"expected an '(a,b)' token, got {token!r}")
    try:
        return complex(float(re_part), float(im_part))
    except ValueError as exc:
        raise FormatError(f"bad complex token {token!r}") from exc


def format_complex(z: complex) -> str:
    """The ``(a,b)`` token of ``z``, which :func:`parse_complex` reads back
    bit-exactly."""
    return f"({z.real!r},{z.imag!r})"
