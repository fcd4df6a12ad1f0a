"""The match engine — the classifier lookup substrate.

DIFANE's core argument is that packet classification belongs in the data
plane at hardware speed.  Every classifier owner
(:class:`~repro.flowspace.table.RuleTable`, the TCAM model, the pipeline,
the baselines) stores and looks up its rules through one
:class:`LinearEngine`: a priority match, the way a TCAM does it, answered
by a scan of the ordered list or by a probe of a mask index, whichever
the table's shape favours.

The winner is the matching rule with the highest priority, ties broken by
insertion order (first-installed-wins, the OpenFlow convention).  The
decision tree of :mod:`repro.core.partition` only cuts flow space into
partitions offline; it is not a lookup path.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.flowspace.fields import HeaderLayout
from repro.flowspace.rule import Rule
from repro.flowspace.ternary import Ternary

__all__ = ["LinearEngine"]

#: Ordering key of a rule inside an engine: priority descending, then
#: insertion sequence ascending.  Smaller key = wins lookup.
_Key = Tuple[int, int]

#: :class:`LinearEngine` answers lookups and win fragments from its mask
#: index while it holds more than this many rules per distinct mask, and
#: by scanning its ordered list otherwise.  A probe costs one ``dict.get``
#: per mask, a scan one ternary test per rule up to the winner (all of
#: them on a miss).  Timing both on random five-tuple tables of 1-64 masks
#: at 1-8 rules per mask, half the probes drawn from the rules, put the
#: break-even between three and six rules per mask (CPython 3.11); the
#: C2 soak's 3-9-rule authority tables, whose winners sit in the first
#: two slots, still scanned faster at four, hence eight.  Churned cache
#: tables (one or two masks, ~200 rules) probe; the ClassBench ACL (855
#: masks in 1000 rules) and small tables scan.
PROBE_RULES_PER_MASK = 8


@lru_cache(maxsize=None)
def _cachegen():
    """:mod:`repro.core.cachegen`, imported on first use (core depends on
    flowspace) and then at the cost of a cache hit, not an import."""
    from repro.core import cachegen

    return cachegen


class LinearEngine:
    """Priority-ordered list plus a mask-indexed hash.

    Two views of one rule set:

    * ``_rules`` — every rule in lookup order, with a ``rule_id → rule``
      index so membership is O(1) and removal locates the list slot by a
      binary search on the (unique) ordering key;
    * ``_groups`` — tuple-space search (Srinivasan et al.; the structure
      behind Open vSwitch megaflows): ``{mask: {value: [(key, rule), ...]}}``
      with every bucket in key order, so a lookup is one hash probe per
      distinct mask and the best bucket head wins.  Built the first time
      the table probes and maintained from then on; a table that only
      ever scans (a 1000-rule ACL with 855 masks) never pays for it.

    :meth:`lookup_bits` and :meth:`win_fragment` answer from whichever
    view is cheaper for the table's current shape, chosen when the table
    changes (see :data:`PROBE_RULES_PER_MASK`); both views give identical
    answers.
    """

    # Slots, not a ``__dict__``: CPython turns an instance's inline
    # attribute values into a real dict on its first ``__class__``
    # assignment, which slows every attribute load after it.
    __slots__ = ("layout", "_rules", "_sequence", "_order", "_by_id", "_masks", "_groups")

    def __init__(self, layout: HeaderLayout, rules: Optional[Iterable[Rule]] = None):
        self.layout = layout
        self._rules: List[Rule] = []
        self._sequence = 0
        #: rule_id -> insertion sequence (the tie-break half of the key).
        self._order: Dict[int, int] = {}
        #: rule_id -> rule, for O(1) identity membership.
        self._by_id: Dict[int, Rule] = {}
        #: mask -> rules with that mask (the probe/scan decision's input).
        self._masks: Dict[int, int] = {}
        #: mask -> masked value -> [(key, rule)] in key order, or ``None``
        #: until the table first probes.  Invariant once built: a rule is
        #: in ``_rules`` iff it sits in exactly one bucket, the one at its
        #: own ``(mask, value)``, under its ``_key``; no bucket or group is
        #: empty.  ``add`` insorts the entry, ``remove`` deletes it by
        #: identity and drops the bucket and group it empties.
        self._groups: Optional[Dict[int, Dict[int, List[Tuple[_Key, Rule]]]]] = None
        if rules:
            for rule in rules:
                self.add(rule)

    def _key(self, rule: Rule) -> _Key:
        return (-rule.priority, self._order[rule.rule_id])

    # -- mutation ----------------------------------------------------------
    def add(self, rule: Rule) -> None:
        """Insert ``rule``; later lookups honour its priority."""
        self._check_layout(rule)
        self._order[rule.rule_id] = self._sequence
        self._by_id[rule.rule_id] = rule
        self._sequence += 1
        key = self._key(rule)
        self._rules.insert(self._bisect(key), rule)
        mask = rule.match.ternary.mask
        self._masks[mask] = self._masks.get(mask, 0) + 1
        if self._groups is not None:
            self._index(key, rule)
        self._rebind()

    def _index(self, key: _Key, rule: Rule) -> None:
        ternary = rule.match.ternary
        buckets = self._groups.setdefault(ternary.mask, {})
        # Keys are unique, so the tuple compare never reaches the rule.
        insort(buckets.setdefault(ternary.value, []), (key, rule))

    def _ensure_index(self) -> None:
        """Build ``_groups`` from ``_rules`` if it does not exist yet."""
        if self._groups is None:
            self._groups = {}
            for rule in self._rules:
                self._index(self._key(rule), rule)

    def _check_layout(self, rule: Rule) -> None:
        if rule.match.layout != self.layout:
            raise ValueError("rule layout differs from engine layout")

    def _bisect(self, key: _Key) -> int:
        """First index whose key is greater than ``key``."""
        low, high = 0, len(self._rules)
        while low < high:
            mid = (low + high) // 2
            if self._key(self._rules[mid]) <= key:
                low = mid + 1
            else:
                high = mid
        return low

    def remove(self, rule: Rule) -> bool:
        """Remove ``rule`` (by identity); returns whether it was present."""
        if self._by_id.get(rule.rule_id) is not rule:
            return False
        index = self._bisect(self._key(rule)) - 1
        # Keys are unique, so the slot immediately left of the upper bound
        # is the rule itself.
        assert self._rules[index] is rule
        del self._rules[index]
        ternary = rule.match.ternary
        if self._masks[ternary.mask] == 1:
            del self._masks[ternary.mask]
        else:
            self._masks[ternary.mask] -= 1
        if self._groups is not None:
            buckets = self._groups[ternary.mask]
            bucket = buckets[ternary.value]
            for slot, (_, existing) in enumerate(bucket):
                if existing is rule:
                    del bucket[slot]
                    break
            if not bucket:
                del buckets[ternary.value]
                if not buckets:
                    del self._groups[ternary.mask]
        del self._order[rule.rule_id]
        del self._by_id[rule.rule_id]
        self._rebind()
        return True

    def remove_if(self, predicate: Callable[[Rule], bool]) -> List[Rule]:
        """Remove and return every rule satisfying ``predicate``."""
        doomed = [rule for rule in self._rules if predicate(rule)]
        for rule in doomed:
            self.remove(rule)
        return doomed

    def clear(self) -> None:
        """Remove every rule (sequence state is reset too)."""
        self._rules.clear()
        self._order.clear()
        self._by_id.clear()
        self._masks.clear()
        self._groups = None
        self._sequence = 0
        self._rebind()

    def _rebind(self) -> None:
        """Point the lookup entry points at the probe or the scan.

        Decided here, on mutation, so a lookup pays no strategy branch:
        the instance switches between this class (scan) and
        :class:`_ProbingLinearEngine`.  Binding methods onto the instance
        instead would make every engine a reference cycle, freed only by
        the cyclic collector.
        """
        if len(self._rules) > PROBE_RULES_PER_MASK * len(self._masks):
            self._ensure_index()
            cls = _ProbingLinearEngine
        else:
            cls = LinearEngine
        if self.__class__ is not cls:
            self.__class__ = cls

    # -- lookup ------------------------------------------------------------
    # ``lookup_bits`` / ``win_fragment`` are the scan here and the probe on
    # :class:`_ProbingLinearEngine` (see :meth:`_rebind`).
    #
    # The scans test ``(bits & mask) == value`` on the rule's own ternary
    # inline: two Python calls per rule (``matches_bits`` -> ``matches``)
    # were most of a 1000-rule lookup.  The probe reads the same rules
    # through ``_groups``, which every mutation updates with ``_rules``
    # once it is built.
    def _scan_bits(self, header_bits: int) -> Optional[Rule]:
        """The winning rule for packed ``header_bits``, or ``None``."""
        for rule in self._rules:
            ternary = rule.match.ternary
            if (header_bits & ternary.mask) == ternary.value:
                return rule
        return None

    lookup_bits = _scan_bits

    def _probe_bits(self, header_bits: int) -> Optional[Rule]:
        # Each bucket head is its group's best match; the smallest key
        # among the heads is the scan's first match.
        best = None
        for mask, buckets in self._groups.items():
            bucket = buckets.get(header_bits & mask)
            if bucket is not None and (best is None or bucket[0] < best):
                best = bucket[0]
        return None if best is None else best[1]

    def _scan_fragment(self, target: Rule, packet_bits: int) -> Optional[Ternary]:
        return _cachegen().win_fragment(self._rules, target, packet_bits)

    win_fragment = _scan_fragment

    def _probe_fragment(self, target: Rule, packet_bits: int) -> Optional[Ternary]:
        """Indexed :func:`repro.core.cachegen.win_fragment` over this table.

        A rule keyed ahead of ``target`` that matches the packet is the
        head of its group's packet bucket, so one probe per group settles
        "did ``target`` win?".  Only rules overlapping ``target``'s match
        can clip it.  In a group whose mask is a subset of ``target``'s
        those all sit in bucket ``value & mask`` — the packet's own, which
        the probe just showed holds nothing ahead of ``target`` — so only
        the other groups are walked.  Applying what they yield in key
        order is the scan, because a rule that misses ``target``'s match
        cannot overlap any piece of it.
        """
        region = target.match.ternary
        mask, value = region.mask, region.value
        if (packet_bits & mask) != value:
            return None
        if self._by_id.get(target.rule_id) is not target:
            raise ValueError("target rule is not present in the rule sequence")
        target_key = self._key(target)
        ahead: List[Tuple[_Key, Rule]] = []
        for group_mask, buckets in self._groups.items():
            bucket = buckets.get(packet_bits & group_mask)
            if bucket is not None and bucket[0][0] < target_key:
                return None  # a rule ahead of target matches the packet
            if group_mask & ~mask:
                for bucket in buckets.values():
                    for entry in bucket:
                        if entry[0] >= target_key:
                            break
                        other = entry[1].match.ternary
                        if not (value ^ other.value) & mask & group_mask:
                            ahead.append(entry)
        ahead.sort()
        for _, rule in ahead:
            other = rule.match.ternary
            if not (value ^ other.value) & mask & other.mask:
                region = region.subtract_containing(other, packet_bits)
                mask, value = region.mask, region.value
        return region

    # -- views -------------------------------------------------------------
    def rules(self) -> List[Rule]:
        """Every stored rule, in lookup (priority, then insertion) order."""
        return list(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, rule: Rule) -> bool:
        return self._by_id.get(rule.rule_id) is rule

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {len(self)} rules>"


class _ProbingLinearEngine(LinearEngine):
    """A :class:`LinearEngine` whose table shape favours the mask index;
    :meth:`LinearEngine._rebind` moves instances in and out of it."""

    __slots__ = ()

    lookup_bits = LinearEngine._probe_bits
    win_fragment = LinearEngine._probe_fragment
