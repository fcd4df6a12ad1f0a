"""Unit and property tests for the ternary match primitive."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.flowspace import Ternary


def ternaries(width=8):
    """Hypothesis strategy: random ternaries of ``width``."""
    return st.builds(
        lambda v, m: Ternary(v & m, m, width),
        st.integers(min_value=0, max_value=(1 << width) - 1),
        st.integers(min_value=0, max_value=(1 << width) - 1),
    )


def points(width=8):
    return st.integers(min_value=0, max_value=(1 << width) - 1)


class TestConstruction:
    def test_from_string_round_trip(self):
        for text in ("01x", "xxxx", "1111", "x0x1"):
            assert str(Ternary.from_string(text)) == text

    def test_from_string_star_alias(self):
        assert Ternary.from_string("1*0") == Ternary.from_string("1x0")

    def test_from_string_rejects_garbage(self):
        with pytest.raises(ValueError):
            Ternary.from_string("102")

    def test_wildcard(self):
        t = Ternary.wildcard(8)
        assert t.is_wildcard()
        assert t.size() == 256

    def test_exact(self):
        t = Ternary.exact(0xAB, 8)
        assert t.is_exact()
        assert t.size() == 1
        assert t.matches(0xAB)
        assert not t.matches(0xAA)

    def test_from_prefix(self):
        t = Ternary.from_prefix(0b10100000, 3, 8)
        assert str(t) == "101xxxxx"

    def test_from_prefix_zero_length(self):
        assert Ternary.from_prefix(0xFF, 0, 8).is_wildcard()

    def test_value_normalized_under_mask(self):
        # Bits outside the mask are dropped so equal matches compare equal.
        assert Ternary(0b1111, 0b1100, 4) == Ternary(0b1100, 0b1100, 4)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            Ternary(0, 1 << 8, 8)
        with pytest.raises(ValueError):
            Ternary(1 << 8, 0, 8)
        with pytest.raises(ValueError):
            Ternary(0, 0, -1)

    def test_immutable(self):
        t = Ternary.wildcard(4)
        with pytest.raises(AttributeError):
            t.mask = 1


class TestPredicates:
    def test_counts(self):
        t = Ternary.from_string("1x0x")
        assert t.cared_bits() == 2
        assert t.wildcard_bits() == 2
        assert t.size() == 4

    def test_matches_enumeration_consistent(self):
        t = Ternary.from_string("x1x0")
        matched = {bits for bits in range(16) if t.matches(bits)}
        assert matched == set(t.enumerate())

    def test_enumerate_limit(self):
        t = Ternary.wildcard(8)
        assert len(list(t.enumerate(limit=10))) == 10

    def test_bit_accessor(self):
        t = Ternary.from_string("10x")
        assert t.bit(0) == "x"
        assert t.bit(1) == "0"
        assert t.bit(2) == "1"
        with pytest.raises(IndexError):
            t.bit(3)

    def test_with_bit(self):
        t = Ternary.from_string("xxx")
        assert str(t.with_bit(2, "1")) == "1xx"
        assert str(t.with_bit(0, "0")) == "xx0"
        assert str(t.with_bit(1, "x")) == "xxx"
        with pytest.raises(ValueError):
            t.with_bit(0, "q")


class TestRelations:
    def test_intersects_agreeing(self):
        a = Ternary.from_string("1x")
        b = Ternary.from_string("x0")
        assert a.intersects(b)
        assert a.intersection(b) == Ternary.from_string("10")

    def test_disjoint(self):
        a = Ternary.from_string("1x")
        b = Ternary.from_string("0x")
        assert not a.intersects(b)
        assert a.intersection(b) is None

    def test_covers(self):
        outer = Ternary.from_string("1xxx")
        inner = Ternary.from_string("10x1")
        assert outer.covers(inner)
        assert not inner.covers(outer)

    def test_covers_self(self):
        t = Ternary.from_string("1x0x")
        assert t.covers(t)

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            Ternary.wildcard(4).intersects(Ternary.wildcard(8))


class TestSubtract:
    def test_disjoint_returns_self(self):
        a = Ternary.from_string("1x")
        b = Ternary.from_string("0x")
        assert a.subtract(b) == [a]

    def test_covered_returns_empty(self):
        a = Ternary.from_string("10x")
        b = Ternary.from_string("1xx")
        assert a.subtract(b) == []

    def test_known_decomposition(self):
        a = Ternary.from_string("1xxx")
        b = Ternary.from_string("11x1")
        pieces = a.subtract(b)
        assert {str(p) for p in pieces} == {"10xx", "11x0"}

    def test_pieces_are_disjoint(self):
        a = Ternary.wildcard(6)
        b = Ternary.from_string("x101xx")
        pieces = a.subtract(b)
        for i, p in enumerate(pieces):
            for q in pieces[i + 1:]:
                assert not p.intersects(q)


class TestSubtractContaining:
    def test_known_piece(self):
        a = Ternary.from_string("1xxx")
        b = Ternary.from_string("11x1")
        assert str(a.subtract_containing(b, 0b1000)) == "10xx"
        assert str(a.subtract_containing(b, 0b1110)) == "11x0"

    def test_disjoint_returns_self(self):
        a = Ternary.from_string("1x")
        b = Ternary.from_string("0x")
        assert a.subtract_containing(b, 0b10) is a

    def test_outside_self_or_inside_other_is_none(self):
        a = Ternary.from_string("1xxx")
        b = Ternary.from_string("11x1")
        assert a.subtract_containing(b, 0b0000) is None
        assert a.subtract_containing(b, 0b1101) is None
        assert a.subtract_containing(Ternary.from_string("0xxx"), 0b0000) is None

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            Ternary.wildcard(4).subtract_containing(Ternary.wildcard(8), 0)


class TestStructure:
    def test_concat(self):
        high = Ternary.from_string("1x")
        low = Ternary.from_string("01")
        assert str(high.concat(low)) == "1x01"

    def test_extract(self):
        t = Ternary.from_string("1x01")
        assert str(t.extract(0, 2)) == "01"
        assert str(t.extract(2, 2)) == "1x"
        with pytest.raises(ValueError):
            t.extract(3, 2)

    def test_concat_extract_round_trip(self):
        high = Ternary.from_string("x10")
        low = Ternary.from_string("0x")
        joined = high.concat(low)
        assert joined.extract(2, 3) == high
        assert joined.extract(0, 2) == low

    def test_hash_consistency(self):
        a = Ternary.from_string("1x0")
        b = Ternary.from_string("1x0")
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestSampling:
    def test_sample_always_matches(self, rng):
        t = Ternary.from_string("1xx0x1xx")
        for _ in range(50):
            assert t.matches(t.sample(rng))

    def test_sample_exact(self, rng):
        t = Ternary.exact(0x5A, 8)
        assert t.sample(rng) == 0x5A


def sample_per_position(ternary, rng):
    """``Ternary.sample`` as it was: a walk over every bit position,
    drawing once per wildcard one."""
    bits = ternary.value
    for position in range(ternary.width):
        if not (ternary.mask >> position) & 1 and rng.random() < 0.5:
            bits |= 1 << position
    return bits


@settings(max_examples=200, deadline=None)
@given(data=st.data(), width=st.integers(1, 128), seed=st.integers(0, 2**32 - 1))
def test_prop_sample_draws_like_the_position_walk(data, width, seed):
    """Same value and the same ``rng`` state after: workloads drawn with
    either walk are identical, draw for draw."""
    ternary = data.draw(ternaries(width))
    fast, slow = random.Random(seed), random.Random(seed)
    assert ternary.sample(fast) == sample_per_position(ternary, slow)
    assert fast.getstate() == slow.getstate()


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------

@settings(max_examples=200)
@given(a=ternaries(), b=ternaries(), p=points())
def test_prop_intersection_is_conjunction(a, b, p):
    """p ∈ a∩b  ⇔  p ∈ a and p ∈ b."""
    overlap = a.intersection(b)
    in_both = a.matches(p) and b.matches(p)
    if overlap is None:
        assert not in_both
    else:
        assert overlap.matches(p) == in_both


@settings(max_examples=200)
@given(a=ternaries(), b=ternaries(), p=points())
def test_prop_subtract_is_set_difference(a, b, p):
    """p ∈ a−b  ⇔  p ∈ a and p ∉ b."""
    pieces = a.subtract(b)
    in_difference = any(piece.matches(p) for piece in pieces)
    assert in_difference == (a.matches(p) and not b.matches(p))


@settings(max_examples=200)
@given(a=ternaries(), b=ternaries())
def test_prop_subtract_pieces_disjoint_and_sized(a, b):
    pieces = a.subtract(b)
    for i, p in enumerate(pieces):
        for q in pieces[i + 1:]:
            assert not p.intersects(q)
    # Exact cardinality check via sizes (pieces are disjoint subsets of a).
    total = sum(piece.size() for piece in pieces)
    overlap = a.intersection(b)
    expected = a.size() - (overlap.size() if overlap else 0)
    assert total == expected


def _first_piece_containing(region, other, bits):
    """The oracle: search the full decomposition, as cachegen used to."""
    return next((p for p in region.subtract(other) if p.matches(bits)), None)


@settings(max_examples=300)
@given(a=ternaries(), b=ternaries(), p=points())
def test_prop_subtract_containing_is_total(a, b, p):
    """Every branch — clipped, disjoint, outside ``a``, inside ``b``."""
    assert a.subtract_containing(b, p) == _first_piece_containing(a, b, p)


@st.composite
def clipping_cases(draw):
    """``(region, other, bits)`` with bits ∈ region \\ other, region ∩ other ≠ ∅.

    Built constructively so wide headers hit the clipping branch every
    time: ``other`` copies ``bits`` on the bits it shares with ``region``
    and flips at least one of the bits only it cares about.
    """
    width = draw(st.integers(min_value=1, max_value=128))
    word = st.integers(min_value=0, max_value=(1 << width) - 1)
    bits = draw(word)
    other_mask = draw(word.filter(bool))
    region_mask = draw(word) & ~(1 << draw(st.sampled_from(
        [i for i in range(width) if other_mask >> i & 1]
    )))
    extra = other_mask & ~region_mask
    flips = draw(word) & extra or extra
    region = Ternary(bits & region_mask, region_mask, width)
    other = Ternary((bits ^ flips) & other_mask, other_mask, width)
    return region, other, bits


@settings(max_examples=300)
@given(case=clipping_cases())
def test_prop_subtract_containing_matches_subtract(case):
    """Closed form == first matching piece of the search, widths 1–128."""
    region, other, bits = case
    assert region.matches(bits) and not other.matches(bits)
    assert region.intersects(other)
    piece = region.subtract_containing(other, bits)
    assert piece == _first_piece_containing(region, other, bits)
    assert piece.matches(bits)
    assert region.covers(piece) and not piece.intersects(other)


@settings(max_examples=200)
@given(a=ternaries(), b=ternaries())
def test_prop_covers_iff_empty_subtraction(a, b):
    assert b.covers(a) == (a.subtract(b) == [])


@settings(max_examples=100)
@given(t=ternaries())
def test_prop_string_round_trip(t):
    assert Ternary.from_string(str(t)) == t
