"""A capacity-bounded TCAM.

Wraps a :class:`~repro.flowspace.table.RuleTable` with the constraint that
motivates the whole paper: hardware match tables hold only thousands to a
few tens of thousands of entries.  ``install`` refuses (or reports the
need to evict) when full; occupancy and high-water marks feed the
partitioning experiments, which measure exactly how many TCAM entries each
authority switch needs.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.flowspace.fields import HeaderLayout
from repro.flowspace.packet import Packet
from repro.flowspace.rule import Rule, RuleKind
from repro.flowspace.table import RuleTable

__all__ = ["Tcam", "TcamFullError"]


class TcamFullError(Exception):
    """Raised by :meth:`Tcam.install` when no space exists and eviction is off."""


class Tcam:
    """A priority match table with a hard entry budget.

    Parameters
    ----------
    layout:
        Header layout of the rules stored.
    capacity:
        Maximum number of entries; ``None`` means unbounded (used to model
        software tables, which trade capacity for lookup speed).
    """

    def __init__(
        self,
        layout: HeaderLayout,
        capacity: Optional[int] = None,
    ):
        if capacity is not None and capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.layout = layout
        self.capacity = capacity
        self.table = RuleTable(layout)
        self.high_water = 0
        self.installs = 0
        self.evictions = 0
        self.rejected = 0
        self.lookups = 0
        self.hits = 0
        # Observer hooks: every mutation and hit is visible to subscribers
        # (the indexed CacheManager keeps its occupancy counter, duplicate
        # map and eviction heap exact even when callers mutate the table
        # directly via evict_if/clear, bypassing the manager).
        self._install_hooks: List[Callable[[Rule], None]] = []
        self._evict_hooks: List[Callable[[Rule], None]] = []
        self._hit_hooks: List[Callable[[Rule, Optional[float]], None]] = []

    # -- observers ------------------------------------------------------------
    def add_install_hook(self, hook: Callable[[Rule], None]) -> None:
        """Call ``hook(rule)`` after every install."""
        self._install_hooks.append(hook)

    def add_evict_hook(self, hook: Callable[[Rule], None]) -> None:
        """Call ``hook(rule)`` after every removal (evict/evict_if/clear)."""
        self._evict_hooks.append(hook)

    def add_hit_hook(self, hook: Callable[[Rule, Optional[float]], None]) -> None:
        """Call ``hook(rule, now)`` when a rule wins a lookup."""
        self._hit_hooks.append(hook)

    # -- capacity -------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Entries currently installed."""
        return len(self.table)

    @property
    def free_space(self) -> int:
        """Remaining entries; a large sentinel when unbounded."""
        if self.capacity is None:
            return 1 << 62
        return self.capacity - self.occupancy

    def is_full(self) -> bool:
        """True when another install would exceed capacity."""
        return self.free_space <= 0

    # -- mutation ----------------------------------------------------------------
    def install(
        self,
        rule: Rule,
        now: Optional[float] = None,
        make_room: Optional[Callable[[], Optional[Rule]]] = None,
    ) -> Rule:
        """Install ``rule``, optionally evicting via ``make_room`` when full.

        ``make_room`` is called repeatedly while the table is full; it must
        return a rule to evict or ``None`` to give up (raising
        :class:`TcamFullError`).
        """
        while self.is_full():
            victim = make_room() if make_room is not None else None
            if victim is None:
                self.rejected += 1
                raise TcamFullError(
                    f"TCAM full ({self.capacity} entries) and no eviction candidate"
                )
            self.evict(victim)
        rule.installed_at = now
        self.table.add(rule)
        self.installs += 1
        self.high_water = max(self.high_water, self.occupancy)
        for hook in self._install_hooks:
            hook(rule)
        return rule

    def evict(self, rule: Rule) -> bool:
        """Remove ``rule``; returns whether it was present."""
        removed = self.table.remove(rule)
        if removed:
            self.evictions += 1
            for hook in self._evict_hooks:
                hook(rule)
        return removed

    def evict_if(self, predicate: Callable[[Rule], bool]) -> List[Rule]:
        """Remove and return all rules matching ``predicate``."""
        removed = self.table.remove_if(predicate)
        self.evictions += len(removed)
        for rule in removed:
            for hook in self._evict_hooks:
                hook(rule)
        return removed

    def evict_expired(self, now: float) -> List[Rule]:
        """Remove rules whose idle/hard timeout has elapsed."""
        return self.evict_if(lambda rule: rule.is_expired(now))

    def clear(self) -> None:
        """Drop every entry (counters keep accumulating)."""
        dropped = list(self.table.rules) if self._evict_hooks else []
        self.evictions += len(self.table)
        self.table.clear()
        for rule in dropped:
            for hook in self._evict_hooks:
                hook(rule)

    # -- lookup ---------------------------------------------------------------------
    def lookup(self, packet: Packet, now: Optional[float] = None) -> Optional[Rule]:
        """Highest-priority matching rule, updating hit statistics."""
        self.lookups += 1
        winner = self.table.lookup(packet)
        if winner is not None:
            self.hits += 1
            winner.record_hit(packet, now)
            if self._hit_hooks:
                for hook in self._hit_hooks:
                    hook(winner, now)
        return winner

    def peek(self, packet: Packet) -> Optional[Rule]:
        """Lookup without touching any counters (analysis only)."""
        return self.table.lookup(packet)

    # -- views -----------------------------------------------------------------------
    def rules(self, kind: Optional[RuleKind] = None) -> List[Rule]:
        """Installed rules, optionally filtered by :class:`RuleKind`."""
        if kind is None:
            return list(self.table.rules)
        return [rule for rule in self.table if rule.kind is kind]

    def __len__(self) -> int:
        return self.occupancy

    def __iter__(self):
        return iter(self.table)

    def __repr__(self) -> str:
        cap = "∞" if self.capacity is None else str(self.capacity)
        return f"<Tcam {self.occupancy}/{cap} hw={self.high_water}>"
