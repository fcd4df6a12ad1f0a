"""Unit tests for repro.flowspace.bits."""

import pytest

from repro.flowspace import bits


class TestMaskOfWidth:
    def test_zero_width(self):
        assert bits.mask_of_width(0) == 0

    def test_small_widths(self):
        assert bits.mask_of_width(1) == 0b1
        assert bits.mask_of_width(4) == 0b1111
        assert bits.mask_of_width(8) == 0xFF

    def test_wide(self):
        assert bits.mask_of_width(104) == (1 << 104) - 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bits.mask_of_width(-1)


class TestBitAccess:
    def test_bit_at(self):
        assert bits.bit_at(0b1010, 0) == 0
        assert bits.bit_at(0b1010, 1) == 1
        assert bits.bit_at(0b1010, 3) == 1


class TestPopcount:
    def test_zero(self):
        assert bits.popcount(0) == 0

    def test_dense(self):
        assert bits.popcount(0xFF) == 8

    def test_sparse_wide(self):
        assert bits.popcount((1 << 100) | 1) == 2


class TestPrefixMasks:
    def test_empty_mask_is_prefix(self):
        assert bits.is_contiguous_prefix_mask(0, 8)

    def test_full_mask_is_prefix(self):
        assert bits.is_contiguous_prefix_mask(0xFF, 8)

    def test_high_run_is_prefix(self):
        assert bits.is_contiguous_prefix_mask(0b11100000, 8)

    def test_low_run_is_not_prefix(self):
        assert not bits.is_contiguous_prefix_mask(0b00000111, 8)

    def test_gap_is_not_prefix(self):
        assert not bits.is_contiguous_prefix_mask(0b11011000, 8)

    def test_mask_exceeding_width_is_not_prefix(self):
        assert not bits.is_contiguous_prefix_mask(0x1FF, 8)
