"""Partial permutation arithmetic, counting, enumeration, closure, embedding,
and the exact matrix-picture identities."""

import math
from pathlib import Path

import numpy as np
import pytest
from _helpers import brute_force_closure, reference_closure, reference_enumeration
from hypothesis import given, settings
from hypothesis import strategies as st

from hadperm import pperm
from hadperm.errors import FormatError, LimitExceeded, NotCompletable
from hadperm.pperm import (
    PartialPermutation,
    asymptotic_ratio,
    compose,
    count_all,
    embed_total,
    enumerate_all,
    format_pperm,
    format_semigroup,
    generate_semigroup,
    invert,
    parse_pperm,
    verify_subantipode,
)
from hadperm.prelatin import read_pls, semigroup_of


def pp(*image):
    return PartialPermutation(image)


def partial_permutations(max_size=5):
    """Hypothesis strategy: a random partial permutation."""

    @st.composite
    def build(draw):
        size = draw(st.integers(1, max_size))
        values = list(range(1, size + 1))
        perm = draw(st.permutations(values))
        keep = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        return PartialPermutation([v if k else 0 for v, k in zip(perm, keep)])

    return build()


def equal_size_triples(max_size=5):
    @st.composite
    def build(draw):
        size = draw(st.integers(1, max_size))

        def one():
            values = list(range(1, size + 1))
            perm = draw(st.permutations(values))
            keep = draw(st.lists(st.booleans(), min_size=size, max_size=size))
            return PartialPermutation([v if k else 0 for v, k in zip(perm, keep)])

        return one(), one(), one()

    return build()


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            PartialPermutation([])
        with pytest.raises(ValueError):
            PartialPermutation([3, 0])
        with pytest.raises(ValueError):
            PartialPermutation([1, 1])

    def test_accessors(self):
        sigma = pp(2, 0, 1)
        assert sigma(1) == 2 and sigma(2) is None and sigma(3) == 1
        assert sigma.defect == 1
        assert not sigma.is_total
        assert PartialPermutation.identity(3).is_total
        assert PartialPermutation.empty(2).defect == 2

    def test_matrix_picture(self):
        u = pp(2, 0).matrix()
        assert np.array_equal(u, [[0, 0], [1, 0]])


class TestCompose:
    def test_identity_is_unit(self):
        ident = PartialPermutation.identity(3)
        sigma = pp(2, 0, 1)
        assert compose(ident, sigma) == sigma
        assert compose(sigma, ident) == sigma

    def test_one_to_two_after_two_to_one(self):
        # tau: 2 -> 1, then sigma: 1 -> 2 gives the partial identity on {2}.
        sigma = pp(2, 0)
        tau = pp(0, 1)
        assert compose(sigma, tau) == pp(0, 2)

    def test_undefined_propagates(self):
        tau = pp(0, 1)  # 2 -> 1
        assert compose(tau, tau) == PartialPermutation.empty(2)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="sizes differ: 1 vs 2"):
            compose(pp(1), pp(1, 2))

    def test_associativity_exhaustive_small(self):
        for m in (1, 2, 3):
            elements = list(enumerate_all(m))
            for a in elements:
                for b in elements:
                    ab = compose(a, b)
                    for c in elements:
                        assert compose(ab, c) == compose(a, compose(b, c))

    def test_associativity_sampled_medium_sizes(self):
        rng = np.random.default_rng(23)
        for m in (4, 5, 6):
            elements = []
            for _ in range(60):
                perm = rng.permutation(m) + 1
                mask = rng.integers(0, 2, m)
                elements.append(PartialPermutation(perm * mask))
            triples = rng.integers(0, len(elements), size=(4000, 3))
            for ia, ib, ic in triples:
                a, b, c = elements[ia], elements[ib], elements[ic]
                assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @given(equal_size_triples())
    @settings(max_examples=60, deadline=None)
    def test_matrix_picture_is_multiplicative(self, triple):
        a, b, _ = triple
        product = (a.matrix() @ b.matrix() > 0).astype(int)
        assert np.array_equal(compose(a, b).matrix(), product)


class TestInvert:
    def test_examples(self):
        assert invert(PartialPermutation.identity(3)) == PartialPermutation.identity(3)
        assert invert(pp(2, 0)) == pp(0, 1)
        assert invert(PartialPermutation.empty(2)) == PartialPermutation.empty(2)

    @given(partial_permutations())
    @settings(max_examples=80, deadline=None)
    def test_involution_and_partial_identity(self, sigma):
        assert invert(invert(sigma)) == sigma
        on_range = compose(sigma, invert(sigma))
        expected = PartialPermutation(
            [i if i in sigma.image else 0 for i in range(1, sigma.size + 1)]
        )
        assert on_range == expected


class TestCounting:
    def test_known_values(self):
        assert [count_all(n) for n in range(5)] == [1, 2, 7, 34, 209]
        assert count_all(5) == 1546
        assert count_all(6) == 13327

    def test_recurrence_matches_binomial_sum(self):
        for n in range(60):
            expected = sum(
                math.factorial(k) * math.comb(n, k) ** 2 for k in range(n + 1)
            )
            assert count_all(n) == expected

    def test_matches_enumeration(self):
        for n in range(1, 6):
            assert sum(1 for _ in enumerate_all(n)) == count_all(n)

    def test_enumeration_small_sets(self):
        assert {s for s in enumerate_all(1)} == {pp(0), pp(1)}
        elems = list(enumerate_all(2))
        assert len(elems) == 7
        assert set(elems) == {
            pp(0, 0), pp(1, 0), pp(2, 0), pp(0, 1), pp(0, 2), pp(1, 2), pp(2, 1),
        }

    def test_enumeration_order_is_deterministic(self):
        first = [s.image for s in enumerate_all(3)]
        second = [s.image for s in enumerate_all(3)]
        assert first == second
        # defined points come in ascending count, so the defect is non-increasing
        defects = [3 - sum(1 for v in img if v) for img in first]
        assert defects == sorted(defects, reverse=True)
        # within a defect class the image arrays are lexicographically sorted
        by_defect = {}
        for img, d in zip(first, defects):
            by_defect.setdefault(d, []).append(img)
        for batch in by_defect.values():
            assert batch == sorted(batch)

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            list(enumerate_all(8))
        with pytest.raises(LimitExceeded):
            list(enumerate_all(4, limit=3))

    def test_asymptotic_ratio_values(self):
        # frozen from exact big-integer + 60-digit evaluation
        assert asymptotic_ratio(25) == pytest.approx(1.1296869, abs=1e-6)
        assert asymptotic_ratio(50) == pytest.approx(1.0917306, abs=1e-6)
        assert asymptotic_ratio(100) == pytest.approx(1.0648302, abs=1e-6)

    def test_asymptotic_ratio_decreases(self):
        r25, r50, r100 = (asymptotic_ratio(n) for n in (25, 50, 100))
        assert abs(r25 - 1) > abs(r50 - 1) > abs(r100 - 1)


class TestSemigroup:
    def test_identity_alone(self):
        sg = generate_semigroup([PartialPermutation.identity(2)])
        assert len(sg) == 1

    def test_two_arrows_close_to_order_five(self):
        sg = generate_semigroup([pp(2, 0), pp(0, 1)])
        assert len(sg) == 5
        assert set(sg.elements) == {
            pp(2, 0), pp(0, 1), pp(1, 0), pp(0, 2), pp(0, 0),
        }
        assert not sg.is_group()

    def test_cyclic_shifts_form_group(self):
        shifts = [
            PartialPermutation([(j + k) % 3 + 1 for j in range(3)]) for k in range(3)
        ]
        sg = generate_semigroup(shifts)
        assert len(sg) == 3
        assert sg.is_group()

    def test_closure_property(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            gens = []
            for _ in range(int(rng.integers(1, 4))):
                perm = rng.permutation(4) + 1
                mask = rng.integers(0, 2, 4)
                gens.append(PartialPermutation(perm * mask))
            sg = generate_semigroup(gens)
            members = set(sg.elements)
            for a in sg:
                for b in sg:
                    assert compose(a, b) in members

    @pytest.mark.parametrize("m", [3, 4])
    def test_matches_brute_force_closure(self, m):
        rng = np.random.default_rng(31 + m)
        for _ in range(12):
            gens = []
            for _ in range(int(rng.integers(1, 4))):
                perm = rng.permutation(m) + 1
                mask = rng.integers(0, 2, m)
                gens.append(PartialPermutation(perm * mask))
            sg = generate_semigroup(gens)
            assert len(set(sg.elements)) == len(sg)
            assert set(sg.elements) == brute_force_closure(gens)

    def test_transposition_cycle_and_partial_identity_generate_i5(self):
        gens = [pp(2, 1, 3, 4, 5), pp(2, 3, 4, 5, 1), pp(0, 2, 3, 4, 5)]
        sg = generate_semigroup(gens)
        assert len(sg) == 1546
        assert set(sg.elements) == set(enumerate_all(5))
        assert [e.image for e in sg.elements] == [e.image for e in reference_closure(gens)]

    def test_order_is_generators_then_word_length(self):
        gens = [pp(2, 0, 3), pp(3, 1, 2), pp(2, 0, 3), pp(0, 2, 3)]
        unique = [pp(2, 0, 3), pp(3, 1, 2), pp(0, 2, 3)]
        # shortest word length: products of exactly n generators, level by
        # level, until a level brings nothing new
        length = {g: 1 for g in unique}
        level, n = set(unique), 1
        while True:
            n += 1
            level = {compose(w, g) for w in level for g in unique}
            new = level - length.keys()
            if not new:
                break
            length.update((e, n) for e in new)
        sg = generate_semigroup(gens)
        assert list(sg.generators) == unique
        assert list(sg.elements[:3]) == unique
        assert set(sg.elements) == set(length)
        lengths = [length[e] for e in sg.elements]
        assert lengths == sorted(lengths)

    def test_deterministic_order(self):
        gens = [pp(2, 0), pp(0, 1)]
        assert generate_semigroup(gens).elements == generate_semigroup(gens).elements

    def test_closure_limit(self, monkeypatch):
        gens = [pp(2, 1, 3), pp(2, 3, 1), pp(0, 2, 3)]
        monkeypatch.setattr(pperm, "CLOSURE_LIMIT", 34)
        assert len(generate_semigroup(gens)) == 34
        monkeypatch.setattr(pperm, "CLOSURE_LIMIT", 33)
        with pytest.raises(LimitExceeded):
            generate_semigroup(gens)

    def test_closure_limit_is_order_of_largest_enumeration(self):
        assert pperm.CLOSURE_LIMIT == count_all(pperm.DEFAULT_ENUM_LIMIT) == 130922

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="generator sizes differ: 2 vs 1"):
            generate_semigroup([pp(1), pp(1, 2)])


class TestSemigroupSemantics:
    """Membership scans the elements, equality compares element sets, and
    is_group builds its own set."""

    def test_membership(self):
        sg = generate_semigroup([pp(2, 0), pp(0, 1)])
        member = pp(1, 0)
        assert member in sg
        assert PartialPermutation(list(member.image)) in sg
        assert member.image not in sg
        assert pp(1, 2) not in sg

    def test_reversed_generators_give_an_equal_semigroup(self):
        gens = [pp(2, 3, 1), pp(2, 1, 0), pp(0, 1, 3)]
        forward = generate_semigroup(gens)
        backward = generate_semigroup(reversed(gens))
        assert forward.elements != backward.elements
        assert forward == backward
        assert forward != generate_semigroup(gens[:1])

    def test_is_group(self):
        cycle, swap = pp(2, 3, 1), pp(2, 1, 3)
        symmetric = generate_semigroup([cycle, swap])
        assert len(symmetric) == 6 and symmetric.is_group()
        square = read_pls(Path(__file__).resolve().parent.parent / "data" / "pls4x6.pls")
        assert not semigroup_of(square).is_group()


def random_generators(m, rng):
    """1 to 4 random partial permutations of size m, with an occasional
    repeated generator and an occasional empty map."""
    gens = []
    for _ in range(int(rng.integers(1, 5))):
        perm = rng.permutation(m) + 1
        mask = rng.random(m) < 0.75
        gens.append(PartialPermutation(perm * mask))
    if rng.random() < 0.3:
        gens.append(PartialPermutation.empty(m))
    if rng.random() < 0.3:
        # an equal but distinct object: the first occurrence is kept
        gens.insert(int(rng.integers(0, len(gens) + 1)), PartialPermutation(gens[0].image))
    return [gens[k] for k in rng.permutation(len(gens))]


class TestExactOrder:
    """Element order equals the compose-based references exactly."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_enumeration(self, n):
        images = [s.image for s in enumerate_all(n)]
        assert images == [s.image for s in reference_enumeration(n)]

    @pytest.mark.parametrize("m", range(1, 7))
    def test_closure_of_random_generators(self, m):
        rng = np.random.default_rng([41, m])
        for _ in range(20):
            gens = random_generators(m, rng)
            sg = generate_semigroup(gens)
            expected = reference_closure(gens)
            assert [e.image for e in sg.elements] == [e.image for e in expected]
            # the caller's own objects, deduplicated in first-occurrence order
            firsts = []
            for g in gens:
                if g not in firsts:
                    firsts.append(g)
            assert len(sg.generators) == len(firsts)
            assert all(a is b for a, b in zip(sg.generators, firsts))
            assert all(a is b for a, b in zip(sg.elements, firsts))

    def test_closure_on_many_points(self):
        # the powers of a 300-cycle: images well past 255
        cycle = PartialPermutation([j % 300 + 1 for j in range(1, 301)])
        sg = generate_semigroup([cycle])
        assert len(sg) == 300 and sg.is_group()
        assert [e.image for e in sg.elements] == [e.image for e in reference_closure([cycle])]


class TestEmbedTotal:
    def test_identity_embeds_to_identity(self):
        for n in (2, 4):
            assert embed_total(PartialPermutation.identity(2), n) == (
                PartialPermutation.identity(n)
            )

    def test_single_arrow_in_s4(self):
        assert embed_total(pp(2, 0), 4) == pp(2, 3, 1, 4)

    def test_empty_map_in_s2(self):
        assert embed_total(PartialPermutation.empty(1), 2) == pp(2, 1)

    def test_too_many_undefined(self):
        sigma = PartialPermutation.empty(2)
        with pytest.raises(NotCompletable, match="2 undefined values, more than N - M = 1") as err:
            embed_total(sigma, 3)
        assert err.value.witness == sigma

    @given(partial_permutations(max_size=5), st.integers(0, 4))
    @settings(max_examples=80, deadline=None)
    def test_restriction_property(self, sigma, extra):
        n = sigma.size + sigma.defect + extra
        total = embed_total(sigma, n)
        assert total.is_total
        for j in range(1, sigma.size + 1):
            i = total(j)
            if i <= sigma.size:
                assert sigma(j) == i
            else:
                assert sigma(j) is None


class TestSubantipode:
    def test_identity_case(self):
        u = PartialPermutation.identity(3).matrix()
        assert np.array_equal(u.T @ u @ u.T, u.T)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_small_sizes(self, m):
        assert verify_subantipode(m)

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            verify_subantipode(9)


class TestSerialization:
    def test_format_examples(self):
        assert format_pperm(pp(2, 0)) == "2: 2 _"
        assert parse_pperm("2: 2 _") == pp(2, 0)
        assert parse_pperm(format_pperm(pp(0, 3, 1))) == pp(0, 3, 1)

    def test_parse_errors(self):
        with pytest.raises(FormatError):
            parse_pperm("2: 1")
        with pytest.raises(FormatError):
            parse_pperm("garbage")
        with pytest.raises(FormatError):
            parse_pperm("2: 1 1")

    def test_semigroup_round_trip(self):
        sg = generate_semigroup([pp(2, 0), pp(0, 1)])
        text = format_semigroup(sg)
        assert text.splitlines()[0] == "semigroup 2 5"
        assert text.splitlines()[1:] == [format_pperm(e) for e in sg]
