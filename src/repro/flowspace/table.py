"""Prioritized rule tables.

A :class:`RuleTable` is the software model of a classifier: rules ordered
by priority (ties broken by insertion order, matching OpenFlow's
first-installed-wins convention for equal priorities).

Storage and lookup are delegated to a
:class:`~repro.flowspace.engine.LinearEngine` (mask-indexed priority
list); the table keeps the stable public API.  Win regions and the
cache rules cut from them live in :mod:`repro.core.cachegen`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence

from repro.flowspace.engine import LinearEngine
from repro.flowspace.fields import HeaderLayout
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
