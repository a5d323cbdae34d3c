"""Sign-vector statistics, family enumeration, and region counts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argmaxable.labelspace import (
    DEFAULT_ENUMERATION_BUDGET,
    EnumerationBudgetError,
    FamilyKind,
    FamilySpec,
    LabelAssignment,
    act,
    alt,
    count_family,
    cover_count,
    enumerate_family,
)

from reference_impls import (
    family_strings,
    reference_from_dense,
    region_count_formula,
    string_act,
    string_alt,
)


def dense(text: str) -> LabelAssignment:
    return LabelAssignment.from_dense(text)


class TestLabelAssignment:
    def test_dense_round_trip_canonical_minus(self):
        y = dense("+--+")
        assert y.to_dense() == "+−−+"
        assert LabelAssignment.from_dense(y.to_dense()) == y

    def test_ascii_and_typographic_minus_parse_alike(self):
        assert dense("+-+") == dense("+−+")

    def test_from_active_matches_dense(self):
        assert LabelAssignment.from_active(4, (1, 4)) == dense("+--+")
        assert LabelAssignment.from_active(3, ()) == dense("---")

    def test_flip_is_involutive(self):
        y = dense("+-+-")
        assert y.flip().to_dense() == "−+−+"
        assert y.flip().flip() == y

    def test_hashable_and_set_semantics(self):
        members = {dense("+-"), dense("-+"), dense("+-")}
        assert len(members) == 2
        assert dense("+-") in members

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="+-\u2212x7 ", max_size=24))
    def test_from_dense_matches_the_per_character_parser(self, text):
        try:
            got = LabelAssignment.from_dense(text).signs.tolist()
        except ValueError as exc:
            got = str(exc)
        assert got == reference_from_dense(text)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=80))
    def test_to_dense_matches_the_per_character_join(self, signs):
        y = LabelAssignment(np.array(signs))
        assert y.to_dense() == "".join("+" if s > 0 else "−" for s in signs)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            LabelAssignment.from_dense("+0-")
        with pytest.raises(ValueError):
            LabelAssignment.from_dense("")
        with pytest.raises(ValueError):
            LabelAssignment(np.array([1, 0, -1]))
        with pytest.raises(ValueError):
            LabelAssignment.from_active(3, (4,))

    def test_signs_are_read_only(self):
        y = dense("+-")
        with pytest.raises(ValueError):
            y.signs[0] = -1


class TestStatistics:
    def test_act_examples(self):
        assert act(dense("----")) == 0
        assert act(dense("+--+")) == 2
        assert act(dense("++++")) == 4

    def test_alt_examples(self):
        assert alt(dense("----")) == 0
        assert alt(dense("+--+")) == 2
        assert alt(dense("+-+-")) == 3
        assert alt(dense("+")) == 0

    @given(st.lists(st.sampled_from("+-"), min_size=1, max_size=32))
    def test_agrees_with_string_oracle(self, chars):
        word = "".join(chars)
        y = dense(word)
        assert act(y) == string_act(word)
        assert alt(y) == string_alt(word)

    @given(st.lists(st.sampled_from("+-"), min_size=1, max_size=32))
    def test_flip_symmetries(self, chars):
        y = dense("".join(chars))
        assert act(y.flip()) == y.n - act(y)
        assert alt(y.flip()) == alt(y)

    @given(st.lists(st.sampled_from("+-"), min_size=1, max_size=32))
    def test_alternations_at_most_twice_activations(self, chars):
        # Each maximal run of '+' contributes at most two sign changes.
        y = dense("".join(chars))
        assert alt(y) <= 2 * act(y)


class TestFamilySpec:
    def test_validates_bounds(self):
        FamilySpec(4, 4, FamilyKind.ACTIVE)
        FamilySpec(4, 3, FamilyKind.ALTERNATING)
        with pytest.raises(ValueError):
            FamilySpec(4, 5, FamilyKind.ACTIVE)
        with pytest.raises(ValueError):
            FamilySpec(4, 4, FamilyKind.ALTERNATING)
        with pytest.raises(ValueError):
            FamilySpec(0, 0, FamilyKind.ACTIVE)
        with pytest.raises(ValueError):
            FamilySpec(4, -1, FamilyKind.ACTIVE)


class TestCounts:
    def test_frozen_values(self):
        assert count_family(FamilySpec(6, 2, FamilyKind.ALTERNATING)) == 32
        assert count_family(FamilySpec(4, 1, FamilyKind.ALTERNATING)) == 8
        assert count_family(FamilySpec(6, 1, FamilyKind.ACTIVE)) == 7

    def test_count_matches_brute_force(self):
        for n in range(1, 9):
            for k in range(n + 1):
                expected = len(family_strings(n, k, "active"))
                assert count_family(FamilySpec(n, k, FamilyKind.ACTIVE)) == expected
            for k in range(n):
                expected = len(family_strings(n, k, "alternating"))
                got = count_family(FamilySpec(n, k, FamilyKind.ALTERNATING))
                assert got == expected

    def test_cover_count_frozen_values(self):
        assert cover_count(3, 2) == 6
        assert cover_count(6, 3) == 32
        assert cover_count(5, 5) == 32

    def test_cover_count_matches_plain_binomial_sum(self):
        for n in range(1, 30):
            for d in range(1, n + 2):
                assert cover_count(n, d) == region_count_formula(n, d)

    def test_cover_count_equals_alternating_family_size(self):
        for n in range(2, 12):
            for d in range(1, n + 1):
                fam = FamilySpec(n, d - 1, FamilyKind.ALTERNATING)
                assert cover_count(n, d) == count_family(fam)

    def test_cover_count_saturates_at_full_hypercube(self):
        for n in range(1, 16):
            assert cover_count(n, n) == 2**n
            assert cover_count(n, n + 7) == 2**n

    def test_cover_count_monotone_in_d(self):
        for n in (5, 9, 13):
            counts = [cover_count(n, d) for d in range(1, n + 1)]
            assert counts == sorted(counts)

    def test_huge_n_stays_exact(self):
        # Python-int arithmetic: no overflow, no float rounding.
        assert cover_count(10**5, 2) == 2 * (1 + (10**5 - 1))
        n, d = 1000, 500
        assert cover_count(n, d) == 2 * sum(
            math.comb(n - 1, j) for j in range(d)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            cover_count(0, 1)
        with pytest.raises(ValueError):
            cover_count(3, 0)


class TestEnumeration:
    def test_members_match_brute_force(self):
        for n in range(1, 8):
            for k in range(n + 1):
                fam = FamilySpec(n, k, FamilyKind.ACTIVE)
                got = {y.to_dense().replace("−", "-") for y in enumerate_family(fam)}
                assert got == family_strings(n, k, "active")
            for k in range(n):
                fam = FamilySpec(n, k, FamilyKind.ALTERNATING)
                got = {y.to_dense().replace("−", "-") for y in enumerate_family(fam)}
                assert got == family_strings(n, k, "alternating")

    def test_no_duplicates_and_count_agreement(self):
        for fam in (
            FamilySpec(10, 3, FamilyKind.ACTIVE),
            FamilySpec(10, 4, FamilyKind.ALTERNATING),
            FamilySpec(14, 2, FamilyKind.ALTERNATING),
        ):
            members = list(enumerate_family(fam))
            assert len(members) == count_family(fam)
            assert len(set(members)) == len(members)

    def test_active_order_is_stat_then_lexicographic(self):
        fam = FamilySpec(3, 2, FamilyKind.ACTIVE)
        got = [y.to_dense().replace("−", "-") for y in enumerate_family(fam)]
        assert got == ["---", "+--", "-+-", "--+", "++-", "+-+", "-++"]

    def test_alternating_order_minus_first(self):
        fam = FamilySpec(3, 1, FamilyKind.ALTERNATING)
        got = [y.to_dense().replace("−", "-") for y in enumerate_family(fam)]
        assert got == ["---", "+++", "-++", "+--", "--+", "++-"]

    def test_alternating_stat_is_exactly_flip_count(self):
        fam = FamilySpec(9, 4, FamilyKind.ALTERNATING)
        by_alt = {}
        for y in enumerate_family(fam):
            by_alt.setdefault(alt(y), 0)
            by_alt[alt(y)] += 1
        assert by_alt == {
            j: 2 * math.comb(8, j) for j in range(5)
        }

    def test_budget_refusal_names_both_numbers(self):
        fam = FamilySpec(40, 10, FamilyKind.ACTIVE)
        size = count_family(fam)
        assert size > DEFAULT_ENUMERATION_BUDGET
        with pytest.raises(EnumerationBudgetError) as err:
            enumerate_family(fam)
        assert str(size) in str(err.value)
        assert str(DEFAULT_ENUMERATION_BUDGET) in str(err.value)

    def test_budget_zero_allows_nothing(self):
        with pytest.raises(EnumerationBudgetError):
            enumerate_family(FamilySpec(2, 0, FamilyKind.ACTIVE), budget=0)


class TestActiveAlternatingBound:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_active_bound_implies_alternating_bound(self, n, data):
        """act(y) <= k forces alt(y) <= 2k: each '+' run opens and closes
        at most one sign change on each side."""
        k = data.draw(st.integers(0, n))
        fam = FamilySpec(n, k, FamilyKind.ACTIVE)
        for y in enumerate_family(fam):
            assert alt(y) <= 2 * k
