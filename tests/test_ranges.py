"""Unit and property tests for range ↔ prefix expansion."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.flowspace import range_to_ternaries, Ternary


class TestRangeToTernaries:
    def test_full_range_is_single_wildcard(self):
        result = range_to_ternaries(0, 15, 4)
        assert result == [Ternary.wildcard(4)]

    def test_single_point(self):
        result = range_to_ternaries(5, 5, 4)
        assert result == [Ternary.exact(5, 4)]

    def test_classic_ephemeral(self):
        # [1024, 65535] over 16 bits: the textbook 6-prefix expansion.
        result = range_to_ternaries(1024, 65535, 16)
        assert len(result) == 6

    def test_worst_case_bound(self):
        # [1, 2^w - 2] is the classic worst case: 2w - 2 prefixes.
        width = 8
        result = range_to_ternaries(1, (1 << width) - 2, width)
        assert len(result) == 2 * width - 2

    def test_exact_cover_small(self):
        low, high, width = 3, 12, 4
        pieces = range_to_ternaries(low, high, width)
        covered = sorted(v for piece in pieces for v in piece.enumerate())
        assert covered == list(range(low, high + 1))

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            range_to_ternaries(5, 3, 4)
        with pytest.raises(ValueError):
            range_to_ternaries(0, 16, 4)


@settings(max_examples=200)
@given(
    data=st.tuples(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    ).map(sorted),
    point=st.integers(min_value=0, max_value=255),
)
def test_prop_expansion_covers_exactly(data, point):
    low, high = data
    pieces = range_to_ternaries(low, high, 8)
    in_pieces = any(p.matches(point) for p in pieces)
    assert in_pieces == (low <= point <= high)
    # Pieces must be pairwise disjoint (each point covered exactly once).
    assert sum(1 for p in pieces if p.matches(point)) <= 1


@settings(max_examples=100)
@given(
    data=st.tuples(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    ).map(sorted)
)
def test_prop_expansion_minimal_bound(data):
    low, high = data
    pieces = range_to_ternaries(low, high, 8)
    assert 1 <= len(pieces) <= 2 * 8 - 2 or (low, high) == (0, 255)
    total = sum(p.size() for p in pieces)
    assert total == high - low + 1
