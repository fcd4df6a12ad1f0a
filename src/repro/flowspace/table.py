"""Prioritized rule tables.

A :class:`RuleTable` is the software model of a classifier: rules ordered
by priority (ties broken by insertion order, matching OpenFlow's
first-installed-wins convention for equal priorities), plus the analysis
helpers the DIFANE algorithms and the test oracles rely on: shadow
detection, overlap enumeration, and randomized semantic-equivalence
checking.

Storage and lookup are delegated to a
:class:`~repro.flowspace.engine.LinearEngine` (mask-indexed priority
list); the table keeps the analysis layer and the stable public API.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.flowspace.engine import LinearEngine
from repro.flowspace.fields import HeaderLayout
from repro.flowspace.headerspace import HeaderSpace
from repro.flowspace.packet import Packet
from repro.flowspace.rule import Rule

__all__ = ["RuleTable"]


class RuleTable:
    """An ordered wildcard-rule classifier.

    Lookup visits rules in ``(-priority, insertion sequence)`` order;
    :attr:`rules` exposes exactly that order.

    Parameters
    ----------
    layout:
        Header layout shared by every rule.
    rules:
        Initial rules, inserted in iteration order.
    """

    def __init__(
        self,
        layout: HeaderLayout,
        rules: Optional[Iterable[Rule]] = None,
    ):
        self.layout = layout
        self.engine = LinearEngine(layout)
        if rules:
            for rule in rules:
                self.add(rule)

    # -- mutation -------------------------------------------------------------
    def add(self, rule: Rule) -> None:
        """Insert ``rule`` in priority position."""
        if rule.match.layout != self.layout:
            raise ValueError("rule layout differs from table layout")
        self.engine.add(rule)

    def remove(self, rule: Rule) -> bool:
        """Remove ``rule`` (by identity); returns whether it was present."""
        return self.engine.remove(rule)

    def remove_if(self, predicate: Callable[[Rule], bool]) -> List[Rule]:
        """Remove and return every rule satisfying ``predicate``."""
        return self.engine.remove_if(predicate)

    def clear(self) -> None:
        """Remove every rule (insertion-sequence state resets too)."""
        self.engine.clear()

    # -- lookup ------------------------------------------------------------------
    def lookup(self, packet: Packet) -> Optional[Rule]:
        """The highest-priority rule matching ``packet``, or ``None``."""
        return self.engine.lookup_bits(packet.header_bits)

    def lookup_bits(self, header_bits: int) -> Optional[Rule]:
        """The highest-priority rule matching the packed ``header_bits``."""
        return self.engine.lookup_bits(header_bits)

    def classify(self, packet: Packet) -> Optional[Rule]:
        """Like :meth:`lookup` but also updates the winning rule's counters."""
        winner = self.lookup(packet)
        if winner is not None:
            winner.record_hit(packet)
        return winner

    # -- analysis --------------------------------------------------------------------
    def dependencies_of(self, rule: Rule) -> List[Rule]:
        """Higher-priority rules whose match overlaps ``rule``'s.

        These are the rules a correct cache of ``rule`` must account for:
        caching ``rule`` verbatim would steal their packets.
        """
        result = []
        for other in self.engine.rules():
            if other is rule:
                break
            if other.match.intersects(rule.match):
                result.append(other)
        return result

    def shadowed_rules(self) -> List[Rule]:
        """Rules that can never match any packet.

        A rule is shadowed when the union of strictly-higher-priority
        overlapping matches covers it entirely; such rules are dead weight
        in a TCAM and the partitioner prunes them.
        """
        shadowed = []
        covered_so_far: List[Rule] = []
        for rule in self.engine.rules():
            space = HeaderSpace.of(rule.match.ternary)
            space = space.subtract_all(
                other.match.ternary
                for other in covered_so_far
                if other.match.intersects(rule.match)
            )
            if space.is_empty():
                shadowed.append(rule)
            covered_so_far.append(rule)
        return shadowed

    def uncovered_region(self, rule: Rule) -> HeaderSpace:
        """The part of ``rule``'s match not claimed by higher-priority rules.

        This is exactly the region in which ``rule`` wins a lookup — the
        basis of DIFANE's independent cache-rule generation.
        """
        space = HeaderSpace.of(rule.match.ternary)
        for other in self.engine.rules():
            if other is rule:
                break
            if other.match.intersects(rule.match):
                space = space.subtract(other.match.ternary)
                if space.is_empty():
                    break
        return space

    def semantically_equal(
        self,
        oracle: Callable[[int], Optional[Rule]],
        rng: random.Random,
        samples: int = 200,
    ) -> Tuple[bool, Optional[int]]:
        """Randomized equivalence check against another classifier.

        Draws points both uniformly over the header space and *adversarially*
        from rule boundaries (corners of every match), comparing the action
        list and origin policy rule of the winners.  Returns ``(True, None)``
        or ``(False, counterexample_bits)``.
        """
        points: List[int] = []
        for _ in range(samples):
            points.append(rng.getrandbits(self.layout.width))
        for rule in self.engine.rules():
            points.append(rule.match.ternary.value)  # lowest corner
            points.append(rule.match.ternary.sample(rng))
        for bits in points:
            mine = self.lookup_bits(bits)
            theirs = oracle(bits)
            if not _same_outcome(mine, theirs):
                return (False, bits)
        return (True, None)

    # -- views -------------------------------------------------------------------------
    @property
    def rules(self) -> Sequence[Rule]:
        """The rules in lookup order (read-only view)."""
        return tuple(self.engine.rules())

    def __len__(self) -> int:
        return len(self.engine)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.engine.rules())

    def __contains__(self, rule: Rule) -> bool:
        return rule in self.engine

    def __repr__(self) -> str:
        return f"RuleTable({len(self.engine)} rules, layout={self.layout!r})"


def _same_outcome(mine: Optional[Rule], theirs: Optional[Rule]) -> bool:
    """Two lookup winners agree when their resolved policy behaviour agrees."""
    if mine is None or theirs is None:
        return mine is None and theirs is None
    if mine.root_origin() is theirs.root_origin():
        return True
    return mine.actions == theirs.actions
