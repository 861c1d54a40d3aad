"""The document grammar shared by ``.phm``, ``.pls`` and ``.pgrid``: every
malformed stage is a :class:`FormatError` in all three parsers, ``#``
comments are a ``.phm`` feature only, float tokens round-trip bit-exactly,
and the one-pass reader of ``(a,b)`` tokens gives the per-token values and
error texts."""

import numpy as np
import pytest

from hadperm._text import parse_complex, parse_complex_tokens
from hadperm.errors import FormatError
from hadperm.prelatin import parse_pls
from hadperm.submagic import ProjGrid, format_pgrid, parse_pgrid
from hadperm.torus import format_phm, parse_phm

# parser, header tag and a token valid for a 1 x 1 document
FORMATS = {
    "phm": (parse_phm, "phm", "1"),
    "phm-float": (parse_phm, "phm", "(1.0,0.0)"),
    "pls": (parse_pls, "pls", "1"),
    "pgrid": (parse_pgrid, "pgrid", "(1.0,0.0)"),
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


@pytest.mark.parametrize("fmt", FORMATS)
def test_minimal_document_parses(fmt):
    parse, tag, tok = FORMATS[fmt]
    parse(f"{tag} v1\n1 1\n{tok}\n")


@pytest.mark.parametrize("stage", MALFORMED)
@pytest.mark.parametrize("fmt", FORMATS)
def test_malformed_stage_is_format_error(fmt, stage):
    parse, tag, tok = FORMATS[fmt]
    with pytest.raises(FormatError):
        parse(MALFORMED[stage].format(tag=tag, tok=tok))


def test_comments_only_in_phm():
    text = "# before\n{tag} v1\n# sizes\n1 1\n  # row\n{tok}\n"
    for fmt in ("phm", "phm-float"):
        parse, tag, tok = FORMATS[fmt]
        assert parse(text.format(tag=tag, tok=tok)).rows == 1
    for fmt in ("pls", "pgrid"):
        parse, tag, tok = FORMATS[fmt]
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


# Float tokens that stress the conversion: signed zero, the smallest
# subnormal, a near-overflow value, an underscore and exponent spellings.
EDGE_TOKENS = [
    "(-0.0,0.0)", "(0.0,-0.0)", "(-0.0,-0.0)", "(5e-324,-5e-324)",
    "(1e308,-1e308)", "(1_0,-1_0.5)", "(1E-5,+2.5e+3)", "(.5,-7.)",
    "(0.1,0.30000000000000004)", "(inf,-inf)", "(nan,-nan)",
]


def per_token(tokens):
    return np.array([parse_complex(tok) for tok in tokens], dtype=complex)


def test_bulk_reader_equals_per_token_reader():
    rng = np.random.default_rng(71)
    values = rng.normal(size=300) * 10.0 ** rng.integers(-300, 300, size=300)
    random_tokens = [f"({a!r},{b!r})" for a, b in values.reshape(-1, 2).tolist()]
    for tokens in (EDGE_TOKENS, random_tokens, EDGE_TOKENS[:1]):
        bulk = parse_complex_tokens(tokens)
        assert bulk is not None
        assert bulk.tobytes() == per_token(tokens).tobytes()


def test_bulk_reader_declines_non_ascii_and_the_caller_reads_it():
    tokens = ["(\u0661,0)", "(1.0,0.0)"]  # ARABIC-INDIC DIGIT ONE
    assert parse_complex_tokens(tokens) is None
    grid = parse_pgrid("pgrid v1\n1 1\n" + " ".join(tokens[:1]) + "\n")
    assert grid.blocks.tobytes() == np.array([[[[1 + 0j]]]]).tobytes()


def test_pgrid_edge_floats_equal_per_token_reference():
    finite = [tok for tok in EDGE_TOKENS if "inf" not in tok and "nan" not in tok]
    tokens = (finite * 4)[:16]
    text = "pgrid v1\n1 4\n" + "\n".join(" ".join(tokens[k:k + 4]) for k in range(0, 16, 4))
    grid = parse_pgrid(text)
    assert grid.blocks.tobytes() == per_token(tokens).tobytes()


# Each bad token, after a good one, with the parent's exact FormatError text
# (the same from .phm and .pgrid except where the .phm grammar names it).
BAD_TOKENS = {
    "(1,2": "expected an '(a,b)' token, got '(1,2'",
    "((1,2)": "bad complex token '((1,2)'",
    "(1)": "expected an '(a,b)' token, got '(1)'",
    "(1,2,3)": "bad complex token '(1,2,3)'",
    "(,)": "bad complex token '(,)'",
    "(a,b)": "bad complex token '(a,b)'",
    "(1,2))": "bad complex token '(1,2))'",
    "(1,)": "bad complex token '(1,)'",
    "()": "expected an '(a,b)' token, got '()'",
    "(1,2)(3,4)": "bad complex token '(1,2)(3,4)'",
}
DOCUMENTS = {
    "phm": (parse_phm, "phm v1\n1 3\n(1.0,0.0) {} (1.0,0.0)\n"),
    "pgrid": (parse_pgrid, "pgrid v1\n1 3\n(1.0,0.0) {} (1.0,0.0)\n" + "(0.0,0.0) " * 3 + "\n" + "(0.0,0.0) " * 3 + "\n"),
}


@pytest.mark.parametrize("fmt", DOCUMENTS)
@pytest.mark.parametrize("bad", BAD_TOKENS)
def test_bad_token_keeps_its_error_text(bad, fmt):
    parse, doc = DOCUMENTS[fmt]
    with pytest.raises(FormatError) as info:
        parse(doc.format(bad))
    assert str(info.value) == BAD_TOKENS[bad]


@pytest.mark.parametrize("fmt", DOCUMENTS)
def test_miscounted_tokens_cannot_pair_up(fmt):
    # "(1,)" and "1(2,3)" each have one '(', one ')' and one ',', end with
    # ')', and give four parts between them: the reader must still refuse
    parse, doc = DOCUMENTS[fmt]
    with pytest.raises(FormatError) as info:
        parse(doc.replace("{} (1.0,0.0)", "(1,) 1(2,3)"))
    assert str(info.value) == "bad complex token '(1,)'"
