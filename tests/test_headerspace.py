"""Unit and property tests for header-space algebra."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.flowspace import HeaderSpace, Ternary

W = 8

ternaries = st.builds(
    lambda v, m: Ternary(v & m, m, W),
    st.integers(min_value=0, max_value=(1 << W) - 1),
    st.integers(min_value=0, max_value=(1 << W) - 1),
)
points = st.integers(min_value=0, max_value=(1 << W) - 1)


class TestConstruction:
    def test_empty(self):
        space = HeaderSpace.empty(W)
        assert space.is_empty()
        assert space.total_size() == 0

    def test_full(self):
        space = HeaderSpace.full(W)
        assert not space.is_empty()
        assert space.total_size() == 1 << W

    def test_of_requires_members(self):
        with pytest.raises(ValueError):
            HeaderSpace.of()

    def test_add_width_checked(self):
        space = HeaderSpace.empty(W)
        with pytest.raises(ValueError):
            space.add(Ternary.wildcard(4))

    def test_add_covered_member_is_noop(self):
        space = HeaderSpace.of(Ternary.wildcard(W))
        space.add(Ternary.exact(3, W))
        assert len(space) == 1

    def test_add_absorbs_smaller_members(self):
        space = HeaderSpace.of(Ternary.exact(3, W))
        space.add(Ternary.wildcard(W))
        assert len(space) == 1
        assert space.members[0].is_wildcard()

    def test_copy_is_independent(self):
        space = HeaderSpace.of(Ternary.exact(1, W))
        clone = space.copy()
        clone.add(Ternary.exact(2, W))
        assert len(space) == 1
        assert len(clone) == 2


class TestQueries:
    def test_contains_bits(self):
        space = HeaderSpace.of(Ternary.from_string("0000xxxx"))
        assert space.contains_bits(0x05)
        assert not space.contains_bits(0xF0)

    def test_covers_exact(self):
        space = HeaderSpace.of(Ternary.from_string("0xxxxxxx"))
        assert space.covers(Ternary.from_string("00xxxxxx"))
        assert not space.covers(Ternary.wildcard(W))

    def test_covers_needs_multiple_members(self):
        space = HeaderSpace.of(
            Ternary.from_string("0xxxxxxx"), Ternary.from_string("1xxxxxxx")
        )
        assert space.covers(Ternary.wildcard(W))

    def test_intersects(self):
        space = HeaderSpace.of(Ternary.from_string("0000xxxx"))
        assert space.intersects(Ternary.from_string("00000000"))
        assert not space.intersects(Ternary.from_string("1111xxxx"))

    def test_total_size_deduplicates_overlap(self):
        space = HeaderSpace(W)
        # Overlapping members injected directly: 0xxxxxxx ∪ 00xxxxxx.
        space._members.append(Ternary.from_string("0xxxxxxx"))
        space._members.append(Ternary.from_string("00xxxxxx"))
        assert space.total_size() == 128

    def test_sample_in_space(self):
        rng = random.Random(3)
        space = HeaderSpace.of(Ternary.from_string("01xxxxxx"))
        for _ in range(20):
            assert space.contains_bits(space.sample(rng))

    def test_sample_empty_is_none(self):
        assert HeaderSpace.empty(W).sample(random.Random(0)) is None


class TestAlgebra:
    def test_subtract_then_membership(self):
        space = HeaderSpace.full(W).subtract(Ternary.from_string("1xxxxxxx"))
        assert space.total_size() == 128
        assert space.contains_bits(0x00)
        assert not space.contains_bits(0x80)

    def test_intersection(self):
        space = HeaderSpace.of(
            Ternary.from_string("0xxxxxxx"), Ternary.from_string("11xxxxxx")
        )
        narrowed = space.intersection(Ternary.from_string("x1xxxxxx"))
        assert narrowed.contains_bits(0b01000000)
        assert narrowed.contains_bits(0b11000000)
        assert not narrowed.contains_bits(0b00000000)


@settings(max_examples=150)
@given(a=ternaries, b=ternaries, c=ternaries, p=points)
def test_prop_subtract_chain_membership(a, b, c, p):
    """Membership after (a ∪ b) − c matches the pointwise formula."""
    space = HeaderSpace(W)
    space._members.extend([a, b])
    result = space.subtract(c)
    expected = (a.matches(p) or b.matches(p)) and not c.matches(p)
    assert result.contains_bits(p) == expected


@settings(max_examples=150)
@given(members=st.lists(ternaries, min_size=1, max_size=5), probe=ternaries)
def test_prop_covers_equals_exhaustive_check(members, probe):
    space = HeaderSpace(W)
    for member in members:
        space.add(member)
    exhaustive = all(
        space.contains_bits(bits) for bits in probe.enumerate()
    )
    assert space.covers(probe) == exhaustive


@settings(max_examples=150)
@given(members=st.lists(ternaries, min_size=0, max_size=4))
def test_prop_total_size_counts_distinct_points(members):
    space = HeaderSpace(W)
    for member in members:
        space.add(member)
    brute = sum(1 for bits in range(1 << W) if space.contains_bits(bits))
    assert space.total_size() == brute
