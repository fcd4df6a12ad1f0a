"""Ternary (0 / 1 / don't-care) bit strings — the core match primitive.

A :class:`Ternary` is an immutable value describing a set of concrete bit
strings of a fixed ``width``.  Bit *i* is

* **cared** (exact) when bit *i* of ``mask`` is 1 — concrete strings must
  carry ``value``'s bit there, and
* **wildcard** when bit *i* of ``mask`` is 0 — concrete strings may carry
  either bit.

This is exactly the representation a TCAM stores, and it is the currency of
header-space analysis: DIFANE's flow-space partitioning, authority-rule
clipping, and independent cache-rule generation are all implemented as
operations over ternary strings (see :mod:`repro.core.partition` and
:mod:`repro.core.cachegen`).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional

from repro.flowspace.bits import bit_at, mask_of_width, popcount

__all__ = ["Ternary"]


class Ternary:
    """An immutable ternary match over ``width`` bits.

    Parameters
    ----------
    value:
        The cared bit values.  Bits outside ``mask`` are normalized to 0 so
        that equal matches compare equal.
    mask:
        1-bits mark exact-match positions, 0-bits mark wildcards.
    width:
        Total number of bits in the match window.
    """

    __slots__ = ("value", "mask", "width", "_hash")

    def __init__(self, value: int, mask: int, width: int):
        if width < 0:
            raise ValueError(f"width must be non-negative, got {width}")
        full = mask_of_width(width)
        if mask & ~full:
            raise ValueError(f"mask {mask:#x} exceeds width {width}")
        if value & ~full:
            raise ValueError(f"value {value:#x} exceeds width {width}")
        object.__setattr__(self, "value", value & mask)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "_hash", None)

    # -- immutability -----------------------------------------------------
    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Ternary is immutable")

    def __reduce__(self):
        # The immutability guard breaks pickle's default slot restoration
        # (it setattrs each slot); rebuild through the constructor instead.
        # Rules cross pickle boundaries in sharded / multi-process runs.
        return (Ternary, (self.value, self.mask, self.width))

    # -- constructors ------------------------------------------------------
    @classmethod
    def wildcard(cls, width: int) -> "Ternary":
        """The fully wildcarded match (matches every ``width``-bit string)."""
        return cls(0, 0, width)

    @classmethod
    def exact(cls, value: int, width: int) -> "Ternary":
        """An exact match on a single concrete ``width``-bit string."""
        return cls(value, mask_of_width(width), width)

    @classmethod
    def from_string(cls, text: str) -> "Ternary":
        """Parse a string of ``0``, ``1`` and ``x``/``*`` characters.

        The leftmost character is the most significant bit, mirroring how
        classifier rules are written in papers:  ``Ternary.from_string("1x0")``
        matches ``100`` and ``110``.
        """
        value = 0
        mask = 0
        for ch in text:
            value <<= 1
            mask <<= 1
            if ch == "1":
                value |= 1
                mask |= 1
            elif ch == "0":
                mask |= 1
            elif ch in ("x", "X", "*"):
                pass
            else:
                raise ValueError(f"invalid ternary character {ch!r} in {text!r}")
        return cls(value, mask, len(text))

    @classmethod
    def from_prefix(cls, value: int, prefix_len: int, width: int) -> "Ternary":
        """Build a prefix match: the top ``prefix_len`` bits of ``value``."""
        if not 0 <= prefix_len <= width:
            raise ValueError(f"prefix length {prefix_len} out of range for width {width}")
        mask = mask_of_width(prefix_len) << (width - prefix_len) if prefix_len else 0
        return cls(value & mask, mask, width)

    # -- basic predicates ---------------------------------------------------
    def is_exact(self) -> bool:
        """True when every bit is cared (a single concrete string)."""
        return self.mask == mask_of_width(self.width)

    def is_wildcard(self) -> bool:
        """True when no bit is cared (matches everything)."""
        return self.mask == 0

    def cared_bits(self) -> int:
        """Number of exact-match (non-wildcard) bit positions."""
        return popcount(self.mask)

    def wildcard_bits(self) -> int:
        """Number of wildcard bit positions."""
        return self.width - self.cared_bits()

    def size(self) -> int:
        """Number of concrete bit strings this ternary matches (2^wildcards)."""
        return 1 << self.wildcard_bits()

    def matches(self, packet_bits: int) -> bool:
        """True when the concrete string ``packet_bits`` is in this set."""
        return (packet_bits & self.mask) == self.value

    def _check_width(self, other: "Ternary") -> None:
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")

    # -- set relations ------------------------------------------------------
    def intersects(self, other: "Ternary") -> bool:
        """True when some concrete string matches both ternaries.

        Two ternaries are compatible iff they agree on every bit both care
        about — the classic single-instruction TCAM overlap test.
        """
        self._check_width(other)
        common = self.mask & other.mask
        return (self.value ^ other.value) & common == 0

    def intersection(self, other: "Ternary") -> Optional["Ternary"]:
        """The ternary describing strings matched by both, or ``None``."""
        self._check_width(other)
        if not self.intersects(other):
            return None
        return Ternary(self.value | other.value, self.mask | other.mask, self.width)

    def covers(self, other: "Ternary") -> bool:
        """True when every string of ``other`` is matched by ``self``.

        ``self`` subsumes ``other`` iff ``self`` cares about a subset of
        ``other``'s bits and agrees on them.
        """
        self._check_width(other)
        if self.mask & ~other.mask:
            return False
        return (self.value ^ other.value) & self.mask == 0

    def subtract(self, other: "Ternary") -> List["Ternary"]:
        """Return disjoint ternaries covering ``self`` minus ``other``.

        Uses the standard header-space decomposition: walk the bits where
        ``other`` cares but ``self`` does not, flipping one at a time.  The
        result is a list of pairwise-disjoint ternaries whose union is
        exactly ``self \\ other``; it is empty when ``other`` covers
        ``self``.
        """
        self._check_width(other)
        if not self.intersects(other):
            return [self]
        remainder: List[Ternary] = []
        value, mask = self.value, self.mask
        # Bits that other constrains beyond self.
        extra = other.mask & ~self.mask
        for position in _iter_bits_high_to_low(extra, self.width):
            other_bit = bit_at(other.value, position)
            flipped_value = value | ((1 - other_bit) << position)
            flipped_mask = mask | (1 << position)
            remainder.append(Ternary(flipped_value, flipped_mask, self.width))
            # Continue inside the half that still intersects `other`.
            value = value | (other_bit << position)
            mask = flipped_mask
        return remainder

    def subtract_containing(self, other: "Ternary", bits: int) -> Optional["Ternary"]:
        """The piece of ``self`` minus ``other`` that contains ``bits``.

        Equal to the first piece of ``subtract(other)`` that matches
        ``bits`` — ``self`` itself when the two are disjoint, ``None`` when
        ``bits`` lies outside ``self`` or inside ``other`` — but in closed
        form: walking high to low, ``subtract`` pins every extra bit
        ``other`` cares about to ``other``'s value until the one it flips,
        so the piece holding ``bits`` flips the *highest* extra bit where
        ``bits`` disagrees with ``other`` and cares about nothing below it.
        """
        self._check_width(other)
        mask = self.mask
        if (bits & mask) != self.value:
            return None
        if (self.value ^ other.value) & mask & other.mask:
            return self
        extra = other.mask & ~mask
        differing = (bits ^ other.value) & extra
        if not differing:
            return None
        top = differing.bit_length() - 1
        mask |= (extra >> top) << top
        return Ternary(bits & mask, mask, self.width)

    # -- enumeration & sampling ----------------------------------------------
    def enumerate(self, limit: Optional[int] = None) -> Iterator[int]:
        """Yield the concrete strings matched, up to an optional ``limit``.

        Intended for tests and tiny matches; guard with ``size()`` first for
        anything wide.
        """
        free_positions = [i for i in range(self.width) if not bit_at(self.mask, i)]
        total = 1 << len(free_positions)
        count = total if limit is None else min(limit, total)
        for combo in range(count):
            bits = self.value
            for index, position in enumerate(free_positions):
                if bit_at(combo, index):
                    bits |= 1 << position
            yield bits

    def sample(self, rng: random.Random) -> int:
        """Return a uniformly random concrete string matched by this ternary.

        One ``rng.random()`` per wildcard bit, lowest bit first.
        """
        bits = self.value
        free = ~self.mask & mask_of_width(self.width)
        while free:
            low = free & -free
            if rng.random() < 0.5:
                bits |= low
            free ^= low
        return bits

    # -- structure helpers -----------------------------------------------------
    def bit(self, position: int) -> str:
        """The symbol at ``position`` (0 = LSB): ``'0'``, ``'1'`` or ``'x'``."""
        if not 0 <= position < self.width:
            raise IndexError(f"bit {position} out of range for width {self.width}")
        if not bit_at(self.mask, position):
            return "x"
        return "1" if bit_at(self.value, position) else "0"

    def with_bit(self, position: int, symbol: str) -> "Ternary":
        """Return a copy with ``position`` forced to ``'0'``, ``'1'`` or ``'x'``."""
        if not 0 <= position < self.width:
            raise IndexError(f"bit {position} out of range for width {self.width}")
        bit_mask = 1 << position
        if symbol == "x":
            return Ternary(self.value & ~bit_mask, self.mask & ~bit_mask, self.width)
        if symbol == "1":
            return Ternary(self.value | bit_mask, self.mask | bit_mask, self.width)
        if symbol == "0":
            return Ternary(self.value & ~bit_mask, self.mask | bit_mask, self.width)
        raise ValueError(f"invalid ternary symbol {symbol!r}")

    def concat(self, other: "Ternary") -> "Ternary":
        """Concatenate: ``self`` becomes the high-order bits of the result."""
        return Ternary(
            (self.value << other.width) | other.value,
            (self.mask << other.width) | other.mask,
            self.width + other.width,
        )

    def extract(self, offset: int, width: int) -> "Ternary":
        """Extract ``width`` bits starting at ``offset`` (LSB-relative)."""
        if offset < 0 or offset + width > self.width:
            raise ValueError(
                f"slice [{offset}, {offset + width}) out of range for width {self.width}"
            )
        window = mask_of_width(width)
        return Ternary((self.value >> offset) & window, (self.mask >> offset) & window, width)

    # -- dunder plumbing ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ternary):
            return NotImplemented
        return (
            self.width == other.width
            and self.mask == other.mask
            and self.value == other.value
        )

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self.value, self.mask, self.width))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __str__(self) -> str:
        return "".join(self.bit(i) for i in reversed(range(self.width)))

    def __repr__(self) -> str:
        if self.width <= 64:
            return f"Ternary('{self}')"
        return f"Ternary(value={self.value:#x}, mask={self.mask:#x}, width={self.width})"


def _iter_bits_high_to_low(bits: int, width: int):
    """Yield set-bit positions of ``bits`` from most to least significant."""
    for position in range(width - 1, -1, -1):
        if bit_at(bits, position):
            yield position
