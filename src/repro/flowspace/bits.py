"""Low-level bit helpers shared by the ternary-match machinery.

Everything in the flow-space layer represents header bits as Python
integers.  The four helpers here — masks of a width, one bit, population
count and the prefix-mask test — are what :mod:`~repro.flowspace.ternary`,
:mod:`~repro.flowspace.fields` and :mod:`~repro.flowspace.ranges` share.
"""

from __future__ import annotations


def mask_of_width(width: int) -> int:
    """Return an all-ones mask of ``width`` bits (``width`` may be 0)."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def bit_at(value: int, position: int) -> int:
    """Return the bit of ``value`` at ``position`` (0 = least significant)."""
    return (value >> position) & 1


def popcount(value: int) -> int:
    """Population count (number of set bits) of a non-negative integer."""
    return bin(value).count("1")


def is_contiguous_prefix_mask(mask: int, width: int) -> bool:
    """True if ``mask`` selects a contiguous run of high-order bits.

    A prefix mask of length L over ``width`` bits has its L most significant
    bits set and the rest clear — the shape of an IP CIDR mask.  The empty
    mask (fully wildcarded) counts as a length-0 prefix.
    """
    if mask == 0:
        return True
    full = mask_of_width(width)
    if mask & ~full:
        return False
    # A contiguous high-order run means the complement (within width) is of
    # the form 2^k - 1.
    inverted = full & ~mask
    return (inverted & (inverted + 1)) == 0
