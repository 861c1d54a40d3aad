"""The text grammar shared by the ``.phm``, ``.pls`` and ``.pgrid`` formats.

    <tag> v1
    <two positive integer sizes>
    <rows of whitespace-separated tokens>

Blank lines are skipped everywhere.  A format fixes the row count and the
tokens per row from the two sizes; a float token is written ``(a,b)`` for
a + bi, with both parts in ``repr`` form so that it reads back bit-exactly.

A document of float tokens is read in one pass (:func:`parse_complex_tokens`):
one shape check over the joined tokens, one ``float`` per part.  Any other
document, and any document with a bad token, is read token by token, so the
first bad token in document order is the one named.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import FormatError

# Every byte except the delimiters of an (a,b) token and the space between
# two tokens, so that deleting them leaves a document's delimiter skeleton.
_NOT_DELIMITER = bytes(sorted(set(range(256)) - set(b"(,) ")))
_DELIMITERS_TO_SPACES = str.maketrans("(,)", "   ")


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


def parse_complex_tokens(tokens: list[str]) -> np.ndarray | None:
    """The values of whitespace-free ``(a,b)`` tokens as one complex array,
    or None when some token is not of that form with two float parts, or
    the tokens are not all ASCII.

    On None the caller reads the tokens one by one, which names the first
    bad token.  Otherwise every token is ``(`` a ``,`` b ``)`` with a and b
    nonempty and free of delimiters: the delimiter skeleton of the joined
    tokens is ``(,)`` once per token, every token starts with ``(`` and
    ends with ``)`` (the k - 1 separating spaces all sit in ``) (``), and
    the parts number 2k.  Each part then goes through ``float`` as in
    :func:`parse_complex`, so the values are bit-identical to it.
    """
    k = len(tokens)
    joined = " ".join(tokens)
    if not (joined.startswith("(") and joined.endswith(")") and joined.isascii()):
        return None
    raw = joined.encode()
    skeleton = raw.translate(None, _NOT_DELIMITER)
    if skeleton != b"(,) " * (k - 1) + b"(,)" or raw.count(b") (") != k - 1:
        return None
    parts = joined.translate(_DELIMITERS_TO_SPACES).split()
    if len(parts) != 2 * k:
        return None
    try:
        return np.array(list(map(float, parts))).view(complex)
    except ValueError:
        return None


def format_complex(z: complex) -> str:
    """The ``(a,b)`` token of ``z``, which :func:`parse_complex` reads back
    bit-exactly."""
    return f"({z.real!r},{z.imag!r})"
