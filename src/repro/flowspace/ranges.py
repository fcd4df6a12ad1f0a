"""Range ↔ ternary conversion (port ranges, the "range expansion" problem).

Classifier rules frequently constrain transport ports with ranges
(``tp_dst ∈ [1024, 65535]``).  A TCAM can only store ternary strings, so a
range must be *expanded* into a minimal set of prefix matches — the classic
range-expansion blowup (a worst-case range over ``w`` bits needs ``2w - 2``
prefixes).  The ClassBench-style workload generator and the policy
synthesizers use these helpers to produce realistic multi-entry rules.
"""

from __future__ import annotations

from typing import List

from repro.flowspace.bits import mask_of_width
from repro.flowspace.ternary import Ternary

__all__ = ["range_to_ternaries"]


def range_to_ternaries(low: int, high: int, width: int) -> List[Ternary]:
    """Expand the inclusive integer range ``[low, high]`` into prefix ternaries.

    Returns the minimal set of prefix matches whose union is exactly the
    range, ordered from ``low`` upward.  This is the canonical greedy
    algorithm: repeatedly take the largest aligned power-of-two block that
    starts at the current position and does not overrun ``high``.
    """
    limit = mask_of_width(width)
    if not 0 <= low <= high <= limit:
        raise ValueError(f"invalid range [{low}, {high}] for width {width}")
    result: List[Ternary] = []
    position = low
    while position <= high:
        # Largest block size allowed by alignment of `position`.
        if position == 0:
            align_block = 1 << width
        else:
            align_block = position & -position
        # Largest block size that still fits under `high`.
        remaining = high - position + 1
        block = align_block
        while block > remaining:
            block >>= 1
        prefix_len = width - block.bit_length() + 1
        result.append(Ternary.from_prefix(position, prefix_len, width))
        position += block
        if position > limit:
            break
    return result
