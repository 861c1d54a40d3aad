"""The document grammar shared by ``.phm``, ``.pls`` and ``.pgrid``: every
malformed stage is a :class:`FormatError` in all three parsers, ``#``
comments are a ``.phm`` feature only, and float tokens round-trip
bit-exactly."""

import numpy as np
import pytest

from hadperm.errors import FormatError
from hadperm.prelatin import parse_pls
from hadperm.submagic import ProjGrid, format_pgrid, parse_pgrid
from hadperm.torus import format_phm, parse_phm

# parser, header tag and a token valid for a 1 x 1 document
FORMATS = {
    "phm": (parse_phm, "1"),
    "pls": (parse_pls, "1"),
    "pgrid": (parse_pgrid, "(1.0,0.0)"),
}

MALFORMED = {
    "header": "{tag} v2\n1 1\n{tok}\n",
    "missing sizes line": "{tag} v1\n",
    "one size": "{tag} v1\n1\n{tok}\n",
    "non-integer size": "{tag} v1\n1 x\n{tok}\n",
    "zero size": "{tag} v1\n0 1\n",
    "too few rows": "{tag} v1\n1 1\n",
    "too many rows": "{tag} v1\n1 1\n{tok}\n{tok}\n",
    "wrong token count": "{tag} v1\n1 1\n{tok} {tok}\n",
}


@pytest.mark.parametrize("tag", FORMATS)
def test_minimal_document_parses(tag):
    parse, tok = FORMATS[tag]
    parse(f"{tag} v1\n1 1\n{tok}\n")


@pytest.mark.parametrize("stage", MALFORMED)
@pytest.mark.parametrize("tag", FORMATS)
def test_malformed_stage_is_format_error(tag, stage):
    parse, tok = FORMATS[tag]
    with pytest.raises(FormatError):
        parse(MALFORMED[stage].format(tag=tag, tok=tok))


def test_comments_only_in_phm():
    text = "# before\n{tag} v1\n# sizes\n1 1\n  # row\n{tok}\n"
    parse, tok = FORMATS["phm"]
    assert parse(text.format(tag="phm", tok=tok)).rows == 1
    for tag in ("pls", "pgrid"):
        parse, tok = FORMATS[tag]
        with pytest.raises(FormatError):
            parse(text.format(tag=tag, tok=tok))
        with pytest.raises(FormatError):
            parse(f"{tag} v1\n1 1\n# row\n{tok}\n")


def test_pgrid_floats_round_trip_bit_exactly():
    values = [complex(-0.0, 5e-324), complex(1e308, 0.1 + 0.2)]
    blocks = np.array([[[values, values[::-1]]]])
    text = format_pgrid(ProjGrid(blocks))
    assert "(-0.0,5e-324) (1e+308,0.30000000000000004)" in text
    again = parse_pgrid(text)
    assert again.blocks.tobytes() == blocks.tobytes()
    assert format_pgrid(again) == text


def test_phm_unit_floats_round_trip_bit_exactly():
    text = "phm v1\n1 4\n(1.0,-0.0) (-0.0,1.0) (-1.0,-0.0) (-0.0,-1.0)\n"
    h = parse_phm(text)
    expected = np.array([[complex(1.0, -0.0), complex(-0.0, 1.0),
                          complex(-1.0, -0.0), complex(-0.0, -1.0)]])
    assert h.to_complex().tobytes() == expected.tobytes()
    assert format_phm(h) == text
