"""Prioritized wildcard rules.

A :class:`Rule` couples a :class:`Match` (a ternary over a header layout)
with a priority and an action list, plus the bookkeeping a real switch
keeps per TCAM entry: packet/byte counters, idle/hard timeouts, and — for
DIFANE — the rule *kind* (cache / authority / partition / primary policy)
that determines which pipeline stage it lives in.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import List, Optional

from repro.flowspace.action import Action, ActionList
from repro.flowspace.fields import HeaderLayout
from repro.flowspace.packet import Packet
from repro.flowspace.ternary import Ternary

__all__ = ["Match", "Rule", "RuleKind"]

_rule_ids = itertools.count()


class Match:
    """A wildcard match over a named header layout.

    Thin immutable wrapper pairing a packed :class:`Ternary` with its
    :class:`HeaderLayout`, so set operations stay bit-level fast while
    presentation and field access stay name-based.
    """

    __slots__ = ("layout", "ternary")

    def __init__(self, layout: HeaderLayout, ternary: Ternary):
        if ternary.width != layout.width:
            raise ValueError(
                f"ternary width {ternary.width} != layout width {layout.width}"
            )
        self.layout = layout
        self.ternary = ternary

    @classmethod
    def build(cls, layout: HeaderLayout, **field_matches) -> "Match":
        """Build from per-field patterns (see ``HeaderLayout.pack_match``)."""
        return cls(layout, layout.pack_match(**field_matches))

    @classmethod
    def any(cls, layout: HeaderLayout) -> "Match":
        """The match-everything wildcard."""
        return cls(layout, Ternary.wildcard(layout.width))

    # -- relations -----------------------------------------------------------
    def matches_packet(self, packet: Packet) -> bool:
        """True when ``packet``'s header bits fall inside this match."""
        if packet.layout != self.layout:
            raise ValueError("packet and match use different header layouts")
        return self.ternary.matches(packet.header_bits)

    def matches_bits(self, header_bits: int) -> bool:
        """True when the packed ``header_bits`` fall inside this match."""
        return self.ternary.matches(header_bits)

    def intersects(self, other: "Match") -> bool:
        """True when the two matches overlap somewhere in flow space."""
        self._check_layout(other)
        return self.ternary.intersects(other.ternary)

    def intersection(self, other: "Match") -> Optional["Match"]:
        """The overlap region as a match, or ``None`` if disjoint."""
        self._check_layout(other)
        overlap = self.ternary.intersection(other.ternary)
        return None if overlap is None else Match(self.layout, overlap)

    def covers(self, other: "Match") -> bool:
        """True when this match contains every point of ``other``."""
        self._check_layout(other)
        return self.ternary.covers(other.ternary)

    def subtract(self, other: "Match") -> List["Match"]:
        """Disjoint matches covering ``self`` minus ``other``."""
        self._check_layout(other)
        return [Match(self.layout, t) for t in self.ternary.subtract(other.ternary)]

    def field(self, name: str) -> Ternary:
        """The sub-ternary constraining field ``name``."""
        return self.layout.field_ternary(self.ternary, name)

    def _check_layout(self, other: "Match") -> None:
        if self.layout != other.layout:
            raise ValueError("matches use different header layouts")

    # -- dunder ----------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return self.layout == other.layout and self.ternary == other.ternary

    def __hash__(self) -> int:
        return hash((self.layout, self.ternary))

    def __str__(self) -> str:
        return self.layout.describe_match(self.ternary)

    def __repr__(self) -> str:
        return f"Match({self})"


class RuleKind(Enum):
    """Which DIFANE pipeline stage a rule belongs to.

    The DIFANE switch evaluates stages in this order; within a stage the
    usual priority ordering applies (paper §2: cache rules, then authority
    rules, then partition rules).
    """

    #: An operator policy rule, before distribution (lives at the controller).
    POLICY = "policy"
    #: A reactively-installed rule at an ingress switch.
    CACHE = "cache"
    #: A rule stored at an authority switch for its partition.
    AUTHORITY = "authority"
    #: A rule at every ingress switch mapping a partition to its authority
    #: switch (action is ``Encapsulate``).
    PARTITION = "partition"
    #: Baseline: an exact-match microflow rule installed by a controller.
    MICROFLOW = "microflow"


class Rule:
    """A prioritized wildcard rule with counters and timeouts.

    Higher ``priority`` wins.  ``origin`` tracks the policy rule a derived
    (clipped / cached / split) rule came from so experiments can account
    duplication and so counters can be folded back per original rule —
    DIFANE needs this to report aggregate statistics to the operator.
    """

    __slots__ = (
        "match",
        "priority",
        "actions",
        "kind",
        "rule_id",
        "origin",
        "weight",
        "packet_count",
        "byte_count",
        "installed_at",
        "last_hit_at",
        "idle_timeout",
        "hard_timeout",
        "refetch_penalty_s",
        "flow_class",
    )

    def __init__(
        self,
        match: Match,
        priority: int,
        actions,
        kind: RuleKind = RuleKind.POLICY,
        origin: Optional["Rule"] = None,
        weight: float = 0.0,
        idle_timeout: Optional[float] = None,
        hard_timeout: Optional[float] = None,
    ):
        if priority < 0:
            raise ValueError(f"priority must be non-negative, got {priority}")
        if isinstance(actions, Action):
            actions = ActionList(actions)
        elif not isinstance(actions, ActionList):
            actions = ActionList(*actions)
        self.match = match
        self.priority = priority
        self.actions = actions
        self.kind = kind
        self.rule_id = next(_rule_ids)
        self.origin = origin
        #: Expected traffic share; used by cache-priming experiments.
        self.weight = weight
        self.packet_count = 0
        self.byte_count = 0
        self.installed_at: Optional[float] = None
        self.last_hit_at: Optional[float] = None
        self.idle_timeout = idle_timeout
        self.hard_timeout = hard_timeout
        #: Measured cost of re-fetching this rule after eviction (redirect
        #: RTT to the owning authority switch, seconds); stamped by the
        #: authority on cache installs, consumed by cost-aware eviction.
        self.refetch_penalty_s: Optional[float] = None
        #: QoS flow class served by this (cache) rule; stamped by the
        #: authority when a QoS policy is active (see :mod:`repro.obs.qos`),
        #: consumed by class-weighted scoring and residency reservations.
        self.flow_class: Optional[str] = None

    # -- derivation --------------------------------------------------------------
    def root_origin(self) -> "Rule":
        """Follow the ``origin`` chain back to the operator's policy rule."""
        rule = self
        while rule.origin is not None:
            rule = rule.origin
        return rule

    def derive(
        self,
        match: Optional[Match] = None,
        priority: Optional[int] = None,
        actions=None,
        kind: Optional[RuleKind] = None,
        idle_timeout: Optional[float] = None,
        hard_timeout: Optional[float] = None,
    ) -> "Rule":
        """A copy of this rule with some attributes replaced; origin = self.

        Derived rules keep their own counters; aggregate reporting folds
        them back through :meth:`root_origin`.
        """
        return Rule(
            match=match if match is not None else self.match,
            priority=priority if priority is not None else self.priority,
            actions=actions if actions is not None else self.actions,
            kind=kind if kind is not None else self.kind,
            origin=self,
            weight=self.weight,
            idle_timeout=idle_timeout,
            hard_timeout=hard_timeout,
        )

    def clip_to(self, region: Ternary) -> Optional["Rule"]:
        """Restrict this rule to ``region``; ``None`` when disjoint.

        This is the partitioning primitive: a rule overlapping a flow-space
        partition is *split*, and the fragment stored at an authority switch
        is the rule clipped to the partition's region.
        """
        overlap = self.match.ternary.intersection(region)
        if overlap is None:
            return None
        if overlap == self.match.ternary:
            # Entirely inside the region — no split needed; reuse the match.
            return self.derive()
        return self.derive(match=Match(self.match.layout, overlap))

    # -- accounting ------------------------------------------------------------------
    def record_hit(self, packet: Packet, now: Optional[float] = None) -> None:
        """Update counters after this rule processed ``packet``."""
        self.packet_count += 1
        self.byte_count += packet.size_bytes
        if now is not None:
            self.last_hit_at = now

    def is_expired(self, now: float) -> bool:
        """True when an idle or hard timeout has elapsed at time ``now``."""
        if self.hard_timeout is not None and self.installed_at is not None:
            if now - self.installed_at >= self.hard_timeout:
                return True
        if self.idle_timeout is not None:
            reference = self.last_hit_at
            if reference is None:
                reference = self.installed_at
            if reference is not None and now - reference >= self.idle_timeout:
                return True
        return False

    # -- dunder -------------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"<Rule #{self.rule_id} {self.kind.value} prio={self.priority} "
            f"{self.match} -> {self.actions}>"
        )
