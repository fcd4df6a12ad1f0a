"""Policy-churn workloads (paper §4 dynamics).

Real controllers continuously insert and delete rules (short-lived ACL
exceptions, VM arrivals, operator edits).  :class:`ChurnWorkload`
generates a reproducible sequence of insert/delete operations against a
deployed :class:`~repro.core.controller.DifaneController` and records the
management cost of each — the data behind experiment E9.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.flowspace.action import Drop, Forward
from repro.flowspace.fields import HeaderLayout
from repro.flowspace.rule import Match, Rule
from repro.flowspace.ternary import Ternary
from repro.core.controller import DifaneController

__all__ = ["ChurnEvent", "ChurnWorkload"]


@dataclass
class ChurnEvent:
    """Outcome of one policy update."""

    kind: str                    # "insert" | "delete"
    rule: Rule
    affected_partitions: int
    control_messages: int
    cache_entries_flushed: int


class ChurnWorkload:
    """Drive a reproducible insert/delete sequence against a controller.

    Inserted rules are random narrow matches (host-pair style denies) —
    the kind of short-lived rule the paper's dynamics discussion worries
    about.  Deletions pick uniformly among rules this workload previously
    inserted, so the base policy is never destroyed.
    """

    def __init__(
        self,
        controller: DifaneController,
        layout: HeaderLayout,
        seed: int = 0,
        insert_fraction: float = 0.6,
    ):
        if not 0.0 <= insert_fraction <= 1.0:
            raise ValueError("insert_fraction must be within [0, 1]")
        self.controller = controller
        self.layout = layout
        self.insert_fraction = insert_fraction
        self._rng = random.Random(seed)
        self._inserted: List[Rule] = []
        self.events: List[ChurnEvent] = []

    def _random_rule(self) -> Rule:
        priority = self._rng.randint(1, 1 << 16)
        fields = {}
        if "nw_src" in self.layout:
            fields["nw_src"] = Ternary.from_prefix(
                self._rng.getrandbits(32), self._rng.choice([16, 24, 32]), 32
            )
        if "nw_dst" in self.layout:
            fields["nw_dst"] = Ternary.from_prefix(
                self._rng.getrandbits(32), self._rng.choice([24, 32]), 32
            )
        match = Match(self.layout, self.layout.pack_match(**fields))
        action = Drop() if self._rng.random() < 0.7 else Forward("quarantine")
        return Rule(match, priority, action)

    def step(self) -> ChurnEvent:
        """Apply one update and record its cost."""
        controller = self.controller
        do_insert = not self._inserted or self._rng.random() < self.insert_fraction
        messages_before = controller.control_messages
        flushed_before = controller.cache_entries_flushed
        if do_insert:
            rule = self._random_rule()
            affected = controller.insert_rule(rule)
            self._inserted.append(rule)
            kind = "insert"
        else:
            rule = self._inserted.pop(self._rng.randrange(len(self._inserted)))
            affected = controller.delete_rule(rule)
            kind = "delete"
        event = ChurnEvent(
            kind=kind,
            rule=rule,
            affected_partitions=affected,
            control_messages=controller.control_messages - messages_before,
            cache_entries_flushed=controller.cache_entries_flushed - flushed_before,
        )
        self.events.append(event)
        return event

    def run(self, steps: int) -> List[ChurnEvent]:
        """Apply ``steps`` updates; returns their events."""
        return [self.step() for _ in range(steps)]
