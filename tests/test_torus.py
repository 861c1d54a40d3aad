"""Unit-circle matrices: exact and float entries, Fourier and tensor constructions,
partial Hadamard certification, row quotients, minor determinants, and the
.phm format."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from _helpers import drop_last_row, exact_randomized_fourier, phases, take_rows
from hadperm import torus
from hadperm.errors import FormatError, IllConditioned, LimitExceeded
from hadperm.torus import (
    TorusMatrix,
    format_phm,
    fourier,
    is_partial_hadamard,
    minor_det,
    parse_phm,
    read_phm,
    row_quotient,
    tensor,
)

DATA = Path(__file__).resolve().parent.parent / "data"

W3 = np.exp(2j * np.pi / 3)


def one_row(*phases):
    return TorusMatrix.from_phases(
        [[Fraction(*p) if isinstance(p, tuple) else p for p in phases]]
    )


def token(tok: str) -> str:
    """The canonical token of a one-entry ``.phm`` matrix with entry ``tok``."""
    return format_phm(parse_phm(f"phm v1\n1 1\n{tok}\n")).splitlines()[2]


# --------------------------------------------------------------------------
# exact cyclotomic expansion-by-minors oracle (independent of the LU path):
# every entry e^(2*pi*i*p/q) is a coefficient vector over powers of a common
# root of unity; products convolve exponents, the determinant is expanded
# along the first row, and only the final value is evaluated in floats.

def _cyclotomic_det(phases) -> complex:
    n = len(phases)
    q = math.lcm(*[f.denominator for row in phases for f in row])

    def unit(frac: Fraction):
        vec = [Fraction(0)] * q
        vec[int(frac * q) % q] = Fraction(1)
        return tuple(vec)

    def mul(a, b):
        out = [Fraction(0)] * q
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[(i + j) % q] += ca * cb
        return tuple(out)

    def add(a, b):
        return tuple(ca + cb for ca, cb in zip(a, b))

    def neg(a):
        return tuple(-c for c in a)

    zero = tuple([Fraction(0)] * q)
    cells = [[unit(f) for f in row] for row in phases]

    def det(rows, cols):
        if len(cols) == 1:
            return cells[rows[0]][cols[0]]
        total = zero
        r = rows[0]
        for k, c in enumerate(cols):
            sub = det(rows[1:], cols[:k] + cols[k + 1 :])
            term = mul(cells[r][c], sub)
            total = add(total, term if k % 2 == 0 else neg(term))
        return total

    coeffs = det(tuple(range(n)), tuple(range(n)))
    return sum(
        float(c) * np.exp(2j * np.pi * k / q) for k, c in enumerate(coeffs) if c
    )


class TestEntries:
    def test_exact_product_and_quotient(self):
        a = one_row((1, 3))
        b = one_row((1, 2))
        assert tensor(a, b).phase(1, 1) == Fraction(5, 6)
        column = TorusMatrix.from_phases([[Fraction(1, 3)], [Fraction(1, 2)]])
        assert row_quotient(column, 1, 2).phase(1, 1) == Fraction(5, 6)
        assert row_quotient(column, 2, 1).phase(1, 1) == Fraction(1, 6)
        ones = TorusMatrix.from_phases([[0], [Fraction(1, 3)]])
        assert row_quotient(ones, 1, 2).phase(1, 1) == Fraction(2, 3)  # conjugate

    def test_quarter_turns_are_bit_exact(self):
        h = one_row(0, (1, 4), (1, 2), (3, 4), (3, 2))
        assert h.to_complex().tolist() == [[1 + 0j, 1j, -1 + 0j, -1j, -1 + 0j]]
        assert h.phase(1, 5) == Fraction(1, 2)

    def test_mixed_arithmetic_demotes_to_float(self):
        exact = one_row((1, 3))
        approx = TorusMatrix.from_complex([[np.exp(0.7j)]])
        product = tensor(exact, approx)
        assert not product.is_exact
        assert product.phase(1, 1) is None
        assert np.array_equal(
            product.to_complex(), np.multiply(exact.to_complex(), approx.to_complex())
        )

    def test_equality_is_representation_aware(self):
        exact = one_row(0)
        floaty = TorusMatrix.from_complex([[1.0 + 0.0j]])
        assert exact == one_row((2, 2))
        assert exact != floaty
        assert floaty == TorusMatrix.from_complex([[1.0 + 0.0j]])
        assert np.array_equal(exact.to_complex(), floaty.to_complex())
        assert exact != one_row(0, 0)
        with pytest.raises(TypeError):
            hash(exact)

    def test_from_complex_rejects_non_unit(self):
        for value in (1.1, math.nan, complex(0.0, math.nan), math.inf):
            with pytest.raises(ValueError, match="not unit modulus"):
                TorusMatrix.from_complex([[1.0, value]])

    def test_token_round_trip(self):
        for tok in ["1", "-1", "i", "-i", "2/7", "5/6"]:
            assert token(tok) == tok
        assert token("3/6") == "-1"
        assert token("-1/4") == "-i"
        f = TorusMatrix.from_complex([[np.exp(0.3j)]])
        assert parse_phm(format_phm(f)) == f
        with pytest.raises(FormatError):
            token("bogus")
        with pytest.raises(FormatError):
            token("(2.0,0.0)")

    def test_constructors_check_shape(self):
        with pytest.raises(TypeError):
            TorusMatrix([[1]])
        with pytest.raises(ValueError):
            TorusMatrix.from_phases([])
        with pytest.raises(ValueError):
            TorusMatrix.from_phases([[0, 0], [0]])
        with pytest.raises(ValueError):
            TorusMatrix.from_complex(np.ones(3))
        with pytest.raises(ValueError):
            TorusMatrix.from_complex(np.ones((0, 3)))

    def test_from_complex_copies_its_input(self):
        a = np.ones((1, 2), dtype=complex)
        h = TorusMatrix.from_complex(a)
        a[0, 0] = -1
        assert h.to_complex()[0, 0] == 1
        assert not h.to_complex().flags.writeable

    def test_phase_index_validation(self):
        with pytest.raises(ValueError):
            fourier([2]).phase(3, 1)

    def test_huge_denominators_stay_exact(self):
        q = 18446744073709551617  # 2**64 + 1, beyond every fixed-width integer
        h = parse_phm(f"phm v1\n1 2\n1/{q} -1\n")
        assert h.phase(1, 1) == Fraction(1, q)
        t = tensor(h, h)
        assert t.is_exact
        assert format_phm(t) == f"phm v1\n1 4\n2/{q} {q + 2}/{2 * q} {q + 2}/{2 * q} 1\n"
        assert parse_phm(format_phm(t)) == t
        assert row_quotient(t, 1, 1) == one_row(0, 0, 0, 0)


class TestFourier:
    def test_f2(self):
        assert fourier([2]) == TorusMatrix.from_phases([[0, 0], [0, Fraction(1, 2)]])

    def test_f1_is_identity_case(self):
        assert fourier([1]) == one_row(0)

    def test_f2_tensor_f2_rows(self):
        got = fourier([2, 2]).to_complex()
        expected = np.array(
            [
                [1, 1, 1, 1],
                [1, -1, 1, -1],
                [1, 1, -1, -1],
                [1, -1, -1, 1],
            ],
            dtype=complex,
        )
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_unitarity(self, n):
        a = fourier([n]).to_complex()
        assert np.abs(a @ a.conj().T - n * np.eye(n)).max() <= 1e-10

    def test_exact_representation(self):
        assert fourier([3, 5]).is_exact

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            fourier([])
        with pytest.raises(ValueError):
            fourier([0])


class TestEntryLimit:
    """Fourier and tensor products past ``_ENTRY_LIMIT`` entries are refused
    before anything is built."""

    def test_limit_admits_f1024_and_not_f1025(self):
        assert 1024**2 <= torus._ENTRY_LIMIT < 1025**2

    def test_fourier_at_the_limit(self, monkeypatch):
        monkeypatch.setattr(torus, "_ENTRY_LIMIT", 36)
        assert fourier([2, 3]).rows == 6
        with pytest.raises(
            LimitExceeded, match=r"^Fourier matrix of orders \[7\] exceeds the limit of 36 entries$"
        ):
            fourier([7])

    def test_fourier_refused_before_any_factor(self, monkeypatch):
        def no_factor(n):
            raise AssertionError(f"F_{n} was built")

        monkeypatch.setattr(torus, "_fourier_single", no_factor)
        with pytest.raises(LimitExceeded, match=r"orders \[2, 100000\]"):
            fourier([2, 100000])

    def test_tensor_at_the_limit(self, monkeypatch):
        f2, f3 = fourier([2]), fourier([3])
        monkeypatch.setattr(torus, "_ENTRY_LIMIT", 36)
        assert tensor(f2, f3) == fourier([2, 3])
        monkeypatch.setattr(torus, "_ENTRY_LIMIT", 35)
        with pytest.raises(
            LimitExceeded,
            match=r"^tensor product of a 2 x 2 and a 3 x 3 matrix has 36 entries, "
            r"above the limit 35$",
        ):
            tensor(f2, f3)


class TestTensor:
    def test_matches_fourier_of_composite(self):
        f2 = fourier([2])
        assert tensor(f2, f2) == fourier([2, 2])

    def test_unit(self):
        h = fourier([3])
        one = fourier([1])
        assert tensor(h, one) == h
        assert tensor(one, one) == one

    def test_entrywise_definition(self):
        rng = np.random.default_rng(7)
        h = exact_randomized_fourier(3, rng)
        k = exact_randomized_fourier(2, rng)
        t = tensor(h, k)
        arr = t.to_complex()
        ha, ka = h.to_complex(), k.to_complex()
        for i in range(3):
            for a in range(2):
                for j in range(3):
                    for b in range(2):
                        assert t.phase(i * 2 + a + 1, j * 2 + b + 1) == (
                            h.phase(i + 1, j + 1) + k.phase(a + 1, b + 1)
                        ) % 1
                        assert arr[i * 2 + a, j * 2 + b] == pytest.approx(
                            ha[i, j] * ka[a, b], abs=1e-12
                        )

    def test_float_entries_multiply_as_complex(self):
        rng = np.random.default_rng(19)
        h = TorusMatrix.from_complex(np.exp(2j * np.pi * rng.random((2, 3))))
        k = exact_randomized_fourier(2, rng)
        t = tensor(h, k)
        assert phases(t) == [[None] * 6] * 4
        ha, ka, ta = h.to_complex(), k.to_complex(), t.to_complex()
        for i in range(2):
            for a in range(2):
                for j in range(3):
                    for b in range(2):
                        assert abs(ta[i * 2 + a, j * 2 + b] - ha[i, j] * ka[a, b]) <= 4e-16

    def test_preserves_partial_hadamard(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m1 = int(rng.integers(1, 4))
            m2 = int(rng.integers(1, 4))
            h = take_rows(exact_randomized_fourier(int(rng.integers(2, 5)), rng), m1)
            k = take_rows(exact_randomized_fourier(int(rng.integers(2, 5)), rng), m2)
            assert is_partial_hadamard(h).ok
            assert is_partial_hadamard(k).ok
            assert is_partial_hadamard(tensor(h, k)).ok


class TestIsPartialHadamard:
    def test_fourier_rows_are_orthogonal(self):
        h = take_rows(fourier([3]), 2)
        report = is_partial_hadamard(h)
        assert report.ok
        assert report.worst_value <= 1e-14

    def test_equal_rows_fail(self):
        h = TorusMatrix.from_phases([[0, 0], [0, 0]])
        report = is_partial_hadamard(h)
        assert not report.ok
        assert report.worst_pair == (1, 2)
        assert report.worst_value == pytest.approx(2.0)

    def test_perturbed_entry_detected(self):
        a = fourier([3]).to_complex()[:2].copy()
        a[1, 1] *= np.exp(0.1j)
        h = TorusMatrix.from_complex(a)
        report = is_partial_hadamard(h, tol=1e-9)
        assert not report.ok
        oracle = abs(np.sum(a[0] * a[1].conj()))
        assert report.worst_value == pytest.approx(oracle)

    def test_single_row_trivially_ok(self):
        h = one_row(0, (1, 3), (1, 7))
        report = is_partial_hadamard(h)
        assert report.ok
        assert report.worst_pair is None

    def test_modulus_violation_detected(self):
        # within the construction slack, beyond the certification tol
        h = TorusMatrix.from_complex([[1.0, 1.0 + 1e-7]])
        report = is_partial_hadamard(h)
        assert not report.ok
        assert report.worst_entry == (1, 2)
        assert report.worst_modulus_error == pytest.approx(1e-7)


class TestRowQuotient:
    def test_self_quotient_is_ones(self):
        xi = row_quotient(fourier([3]), 1, 1)
        assert xi == one_row(0, 0, 0)

    def test_f3_first_over_second(self):
        xi = row_quotient(fourier([3]), 1, 2)
        assert xi == one_row(0, (2, 3), (1, 3))

    def test_all_ones_denominator(self):
        h = parse_phm("phm v1\n2 4\n1 1 1 1\n1 i -1 -i\n")
        xi = row_quotient(h, 2, 1)
        assert xi == one_row(0, (1, 4), (1, 2), (3, 4))

    def test_exactness_preserved(self):
        rng = np.random.default_rng(3)
        h = exact_randomized_fourier(4, rng)
        assert row_quotient(h, 2, 3).is_exact

    def test_quotient_orthogonality(self):
        # For a partial Hadamard matrix the quotients satisfy
        # <xi_ij, xi_ik> = N*delta_jk and <xi_ij, xi_kj> = N*delta_ik.
        rng = np.random.default_rng(5)
        for n in (3, 4, 5):
            h = take_rows(exact_randomized_fourier(n, rng), 3)
            m = h.rows
            quots = {
                (i, j): row_quotient(h, i, j).to_complex()
                for i in range(1, m + 1)
                for j in range(1, m + 1)
            }
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    for k in range(1, m + 1):
                        row_ip = np.sum(quots[(i, j)] * quots[(i, k)].conj())
                        assert row_ip == pytest.approx(n if j == k else 0.0, abs=1e-10)
                        col_ip = np.sum(quots[(i, j)] * quots[(k, j)].conj())
                        assert col_ip == pytest.approx(n if i == k else 0.0, abs=1e-10)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            row_quotient(fourier([3]), 0, 1)


class TestMinorDet:
    def test_f3_top_rows_by_hand(self):
        h = take_rows(fourier([3]), 2)
        # det [[1,1],[w,w^2]] = w^2 - w = -i*sqrt(3)
        assert minor_det(h, 1) == pytest.approx(W3**2 - W3, abs=1e-12)
        assert abs(minor_det(h, 1)) == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_single_row(self):
        h = parse_phm("phm v1\n1 2\n1 1\n")
        assert minor_det(h, 2) == pytest.approx(1.0)

    def test_f4_minor_moduli(self):
        h = take_rows(fourier([4]), 3)
        for j in range(1, 5):
            assert abs(minor_det(h, j)) == pytest.approx(4.0, abs=1e-10)

    def test_agrees_with_cyclotomic_oracle(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 4, 5, 6):
            h = drop_last_row(exact_randomized_fourier(n, rng, max_den=6))
            for j in range(1, n + 1):
                minor = [row[: j - 1] + row[j:] for row in phases(h)]
                if not minor[0]:
                    continue
                exact = _cyclotomic_det(minor)
                assert minor_det(h, j) == pytest.approx(exact, abs=1e-10)

    def test_shape_and_index_validation(self):
        with pytest.raises(ValueError):
            minor_det(fourier([3]), 1)
        h = take_rows(fourier([3]), 2)
        with pytest.raises(ValueError):
            minor_det(h, 4)

    def test_singular_minor_is_ill_conditioned(self):
        h = TorusMatrix.from_phases([[0] * 3, [0] * 3])
        with pytest.raises(IllConditioned):
            minor_det(h, 1)


class TestPhmFormat:
    def test_exact_round_trip_is_bit_exact(self):
        h = fourier([5])
        text = format_phm(h)
        again = parse_phm(text)
        assert again == h
        assert format_phm(again) == text

    def test_float_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(17)
        a = np.exp(2j * np.pi * rng.random((2, 3)))
        h = TorusMatrix.from_complex(a)
        again = parse_phm(format_phm(h))
        assert again == h
        assert np.array_equal(again.to_complex(), h.to_complex())

    def test_comments_and_shorthands(self):
        text = "# a comment\nphm v1\n# another\n2 2\n1 -1\ni -i\n"
        h = parse_phm(text)
        assert h.phase(2, 1) == Fraction(1, 4)
        assert h.phase(2, 2) == Fraction(3, 4)

    def test_errors(self):
        with pytest.raises(FormatError):
            parse_phm("nope\n")
        with pytest.raises(FormatError):
            parse_phm("phm v1\n2 2\n1 1\n")
        with pytest.raises(FormatError):
            parse_phm("phm v1\n1 2\n1 1 1\n")
        with pytest.raises(FormatError):
            parse_phm("phm v1\n1 1\nxyz\n")

    @pytest.mark.parametrize("tok", ["(nan,0.0)", "(0.0,nan)", "(inf,0.0)", "(1.0,1.0)"])
    def test_non_unit_tokens_rejected(self, tok):
        with pytest.raises(FormatError, match="not unit modulus"):
            parse_phm(f"phm v1\n1 2\n1 {tok}\n")

    def test_float_document_equals_per_token_reference(self):
        # unit entries with signed zeros, a subnormal part, an underscore
        # and exponent spellings, then a random deleted-row Fourier matrix
        edge = ("(1.0,-0.0) (-0.0,1.0) (-1.0,-0.0) (-0.0,-1.0) (1.0,5e-324) "
                "(-5e-324,-1.0) (1_0e-1,0.0) (1E0,-0E5)")
        rng = np.random.default_rng(73)
        a = fourier([9]).to_complex()[1:] * np.exp(2j * np.pi * rng.random(9))
        for text in (f"phm v1\n1 8\n{edge}\n", format_phm(TorusMatrix.from_complex(a))):
            tokens = text.split()[4:]
            reference = np.array([torus._parse_token(tok)[2] for tok in tokens])
            h = parse_phm(text)
            assert h.to_complex().tobytes() == reference.tobytes()
            assert not h.is_exact
            assert h == TorusMatrix.from_complex(reference.reshape(h.rows, h.cols))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1/0 (a,b)", "denominator must be positive in '1/0'"),
            ("(a,b) 1/0", "bad complex token '(a,b)'"),
            ("x (1,2", "unrecognized scalar token 'x'"),
            ("(1,2 x", "expected an '(a,b)' token, got '(1,2'"),
            ("(1.0,0.0) 1/-2", "unrecognized scalar token '1/-2'"),
        ],
    )
    def test_first_bad_token_is_named(self, row, message):
        with pytest.raises(FormatError) as info:
            parse_phm(f"phm v1\n1 2\n{row}\n")
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "name", ["f2", "f3", "f4", "f5", "f6", "f3_top2", "m2_family", "not_orthogonal"]
    )
    def test_shipped_files_parse(self, name):
        h = read_phm(DATA / f"{name}.phm")
        assert h.rows >= 1
        if name.startswith("f") and name != "f3_top2":
            n = int(name[1])
            assert h == fourier([n])
