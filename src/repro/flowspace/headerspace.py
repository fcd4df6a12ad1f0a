"""Header-space algebra: unions of ternary strings.

A :class:`HeaderSpace` is a (possibly overlapping) union of
:class:`~repro.flowspace.ternary.Ternary` strings over the same width.  It
supports the set operations DIFANE's algorithms need:

* the *uncovered remainder* computation used when generating independent
  cache rules (rule minus all higher-priority overlaps), and
* partition coverage checks (do the partitions exactly tile the flow
  space?).

The representation keeps a list of ternaries; ``subtract`` maintains the
invariant that the result's members are pairwise disjoint, which keeps
``total_size`` exact and membership checks cheap.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence

from repro.flowspace.ternary import Ternary

__all__ = ["HeaderSpace"]


class HeaderSpace:
    """A union of ternary strings of one width."""

    __slots__ = ("width", "_members")

    def __init__(self, width: int, members: Optional[Iterable[Ternary]] = None):
        self.width = width
        self._members: List[Ternary] = []
        if members:
            for member in members:
                self.add(member)

    # -- constructors -------------------------------------------------------
    @classmethod
    def full(cls, width: int) -> "HeaderSpace":
        """The entire ``width``-bit flow space."""
        return cls(width, [Ternary.wildcard(width)])

    @classmethod
    def empty(cls, width: int) -> "HeaderSpace":
        """The empty set."""
        return cls(width)

    @classmethod
    def of(cls, *members: Ternary) -> "HeaderSpace":
        """Union of the given ternaries (must share a width)."""
        if not members:
            raise ValueError("HeaderSpace.of needs at least one member; use empty()")
        return cls(members[0].width, members)

    def copy(self) -> "HeaderSpace":
        """An independent copy sharing no mutable state."""
        space = HeaderSpace(self.width)
        space._members = list(self._members)
        return space

    # -- mutation ---------------------------------------------------------------
    def add(self, member: Ternary) -> None:
        """Add one ternary to the union (dropping it if already covered)."""
        if member.width != self.width:
            raise ValueError(f"member width {member.width} != space width {self.width}")
        for existing in self._members:
            if existing.covers(member):
                return
        # Drop existing members the newcomer covers, to keep the list tight.
        self._members = [m for m in self._members if not member.covers(m)]
        self._members.append(member)

    # -- queries --------------------------------------------------------------------
    @property
    def members(self) -> Sequence[Ternary]:
        """The current ternary members (read-only view)."""
        return tuple(self._members)

    def is_empty(self) -> bool:
        """True when no concrete string is in the set."""
        return not self._members

    def contains_bits(self, bits: int) -> bool:
        """Membership test for a concrete header string."""
        return any(member.matches(bits) for member in self._members)

    def covers(self, ternary: Ternary) -> bool:
        """True when every string of ``ternary`` is in this space.

        Implemented as ``ternary - self == ∅`` so it is exact even when the
        cover requires several members.
        """
        remainder = [ternary]
        for member in self._members:
            next_remainder: List[Ternary] = []
            for piece in remainder:
                next_remainder.extend(piece.subtract(member))
            remainder = next_remainder
            if not remainder:
                return True
        return not remainder

    def intersects(self, ternary: Ternary) -> bool:
        """True when ``ternary`` overlaps any member."""
        return any(member.intersects(ternary) for member in self._members)

    def total_size(self) -> int:
        """Exact number of concrete strings in the set.

        Computed by disjointing the members first, so overlapping members
        are not double counted.
        """
        disjoint: List[Ternary] = []
        for member in self._members:
            pieces = [member]
            for existing in disjoint:
                next_pieces: List[Ternary] = []
                for piece in pieces:
                    next_pieces.extend(piece.subtract(existing))
                pieces = next_pieces
                if not pieces:
                    break
            disjoint.extend(pieces)
        return sum(piece.size() for piece in disjoint)

    def sample(self, rng: random.Random) -> Optional[int]:
        """A concrete member string, or ``None`` when empty.

        Sampling is weighted by member size so points are near-uniform when
        members are disjoint (the invariant ``subtract`` maintains).
        """
        if not self._members:
            return None
        weights = [member.size() for member in self._members]
        chosen = rng.choices(self._members, weights=weights, k=1)[0]
        return chosen.sample(rng)

    # -- algebra ------------------------------------------------------------------------
    def subtract(self, ternary: Ternary) -> "HeaderSpace":
        """A new space equal to ``self`` minus ``ternary``.

        Members of the result are pairwise disjoint whenever ``self``'s
        members were (each member's subtraction yields disjoint pieces).
        """
        result = HeaderSpace(self.width)
        for member in self._members:
            for piece in member.subtract(ternary):
                result._members.append(piece)
        return result

    def intersection(self, ternary: Ternary) -> "HeaderSpace":
        """A new space equal to ``self`` ∩ ``ternary``."""
        result = HeaderSpace(self.width)
        for member in self._members:
            overlap = member.intersection(ternary)
            if overlap is not None:
                result._members.append(overlap)
        return result

    # -- dunder -------------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self._members)

    def __repr__(self) -> str:
        if len(self._members) <= 4:
            inner = ", ".join(str(m) for m in self._members)
        else:
            inner = f"{len(self._members)} members"
        return f"HeaderSpace<{self.width}>({inner})"
