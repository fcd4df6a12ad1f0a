"""Pluggable match engines — the classifier lookup substrate.

DIFANE's core argument is that packet classification belongs in the data
plane at hardware speed.  In this reproduction every classifier owner
(:class:`~repro.flowspace.table.RuleTable`, the TCAM model, the pipeline,
the baselines) used to carry its own linear scan; this module extracts the
lookup substrate into a single :class:`MatchEngine` interface with two
conforming backends so the storage/lookup strategy is a deployment knob
rather than a code path:

* :class:`LinearEngine` — the priority-ordered rule list (semantics
  oracle: every other engine is property-tested winner-for-winner
  equivalent to it) plus a tuple-space index (Srinivasan et al.; the
  structure behind Open vSwitch megaflows): rules grouped by mask shape,
  one hash probe per group.  Lookups probe or scan, whichever the table's
  shape favours.
* :class:`DecisionTreeEngine` — a HiCuts-style binary decision tree over
  header bits, reusing the partitioner's cut-selection machinery from
  :mod:`repro.core.partition`; lookups walk the tree and scan a small leaf.

All engines implement identical semantics: the winner is the matching rule
with the highest priority, ties broken by insertion order
(first-installed-wins, the OpenFlow convention).  Engines are selected by
name through :func:`create_engine`; the process-wide default (settable from
the CLI's ``--engine`` flag) is managed by :func:`set_default_engine`.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.flowspace.fields import HeaderLayout
from repro.flowspace.rule import Rule
from repro.flowspace.ternary import Ternary

__all__ = [
    "MatchEngine",
    "LinearEngine",
    "DecisionTreeEngine",
    "ENGINE_CHOICES",
    "create_engine",
    "set_default_engine",
    "get_default_engine",
]

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


class MatchEngine:
    """The interface every lookup backend implements.

    An engine owns rule *storage* and *lookup*; policy concerns (capacity,
    eviction, counters, analysis) stay with the owner.  Subclasses must
    implement :meth:`add`, :meth:`remove`, :meth:`lookup_bits`,
    :meth:`win_fragment`, :meth:`rules`, :meth:`clear` and
    :meth:`__len__`; :meth:`batch_lookup` and :meth:`remove_if` have
    generic implementations they may override.
    """

    #: Registry name (set by subclasses; used in reprs and errors).
    name = "abstract"

    __slots__ = ("layout",)

    def __init__(self, layout: HeaderLayout):
        self.layout = layout

    # -- mutation ----------------------------------------------------------
    def add(self, rule: Rule) -> None:
        """Insert ``rule``; later lookups must honour its priority."""
        raise NotImplementedError

    def add_all(self, rules: Iterable[Rule]) -> None:
        """Insert a batch of rules; equivalent to ``add`` in order.

        Engines with per-insert ordering costs override this with a
        construction fast path (group/sort once) — the observable state
        afterwards must be identical to one-at-a-time ``add`` calls.
        """
        for rule in rules:
            self.add(rule)

    def remove(self, rule: Rule) -> bool:
        """Remove ``rule`` (by identity); returns whether it was present."""
        raise NotImplementedError

    def remove_if(self, predicate: Callable[[Rule], bool]) -> List[Rule]:
        """Remove and return every rule satisfying ``predicate``."""
        doomed = [rule for rule in self.rules() if predicate(rule)]
        for rule in doomed:
            self.remove(rule)
        return doomed

    def clear(self) -> None:
        """Remove every rule (sequence state is reset too)."""
        raise NotImplementedError

    # -- lookup ------------------------------------------------------------
    def lookup_bits(self, header_bits: int) -> Optional[Rule]:
        """The winning rule for packed ``header_bits``, or ``None``."""
        raise NotImplementedError

    def batch_lookup(self, header_bits_seq: Iterable[int]) -> List[Optional[Rule]]:
        """Classify a burst of packed headers in one call.

        Engines override this when they can hoist per-lookup setup (dirty
        checks, attribute loads) out of the loop; the contract is
        element-wise identical to :meth:`lookup_bits`.
        """
        lookup = self.lookup_bits
        return [lookup(bits) for bits in header_bits_seq]

    def win_fragment(self, target: Rule, packet_bits: int) -> Optional[Ternary]:
        """The fragment of ``target``'s win region holding the packet: the
        contract of :func:`repro.core.cachegen.win_fragment` over
        :meth:`rules`."""
        raise NotImplementedError

    # -- views -------------------------------------------------------------
    def rules(self) -> List[Rule]:
        """Every stored rule, in lookup (priority, then insertion) order."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __contains__(self, rule: Rule) -> bool:
        return any(existing is rule for existing in self.rules())

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {len(self)} rules>"

    # -- shared helpers ----------------------------------------------------
    def _check_layout(self, rule: Rule) -> None:
        if rule.match.layout != self.layout:
            raise ValueError("rule layout differs from engine layout")


class LinearEngine(MatchEngine):
    """Priority-ordered list plus a mask-indexed hash (the semantics oracle).

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
    answers.  :meth:`batch_lookup` (the columnar path's fallback for
    tables over 512 rules) always scans.
    """

    name = "linear"

    # Slots, not a ``__dict__``: CPython turns an instance's inline
    # attribute values into a real dict on its first ``__class__``
    # assignment, which slows every attribute load after it.
    __slots__ = ("_rules", "_sequence", "_order", "_by_id", "_masks", "_groups")

    def __init__(self, layout: HeaderLayout, rules: Optional[Iterable[Rule]] = None):
        super().__init__(layout)
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

    def clear(self) -> None:
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
        for rule in self._rules:
            ternary = rule.match.ternary
            if (header_bits & ternary.mask) == ternary.value:
                return rule
        return None

    def _scan_batch(self, header_bits_seq: Iterable[int]) -> List[Optional[Rule]]:
        rules = self._rules
        results: List[Optional[Rule]] = []
        append = results.append
        for bits in header_bits_seq:
            winner = None
            for rule in rules:
                ternary = rule.match.ternary
                if (bits & ternary.mask) == ternary.value:
                    winner = rule
                    break
            append(winner)
        return results

    lookup_bits = _scan_bits
    batch_lookup = _scan_batch

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
        return list(self._rules)

    def ordered_view(self) -> Sequence[Rule]:
        """The live ordered list (no copy); callers must not mutate it."""
        return self._rules

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, rule: Rule) -> bool:
        return self._by_id.get(rule.rule_id) is rule


class _ProbingLinearEngine(LinearEngine):
    """A :class:`LinearEngine` whose table shape favours the mask index;
    :meth:`LinearEngine._rebind` moves instances in and out of it."""

    __slots__ = ()

    lookup_bits = LinearEngine._probe_bits
    win_fragment = LinearEngine._probe_fragment


class DecisionTreeEngine(MatchEngine):
    """Bit-cut decision-tree lookup (HiCuts-style), built lazily.

    Reuses the partitioner's cut-selection machinery
    (:func:`repro.core.partition._choose_cut` — minimize straddling rules,
    then balance) to build a binary tree over header bits; each leaf holds
    the rules overlapping its region in lookup order, so a lookup walks
    ~log(n/leaf) bits and scans a small leaf.

    Wildcard-heavy rules copy into both children of every cut, so an
    unconstrained tree blows up superlinearly on ClassBench-style
    policies.  The build budgets total duplication at ``space_factor``
    extra copies per rule (HiCuts' space-factor measure) and passes the
    budget *proportionally* down the recursion — a global depth-first pool
    starves late subtrees into giant leaves, which is exactly where
    probes land.

    Mutations after a build go to a linear *overlay* (adds) or are masked
    by the authoritative base store (removes); the tree is rebuilt lazily
    once the overlay outgrows ``rebuild_slack`` — so churny tables degrade
    gracefully toward linear behaviour between rebuilds instead of paying
    a full O(n·width) rebuild per install.
    """

    name = "dtree"

    def __init__(
        self,
        layout: HeaderLayout,
        rules: Optional[Iterable[Rule]] = None,
        leaf_size: int = 16,
        max_depth: Optional[int] = None,
        space_factor: int = 8,
    ):
        super().__init__(layout)
        self.leaf_size = leaf_size
        #: Depth cap; every cut fixes one header bit, so ``layout.width``
        #: (the default) is the natural ceiling, not a tuning knob.
        self.max_depth = layout.width if max_depth is None else max_depth
        self.space_factor = space_factor
        #: Authoritative ordered storage (also the overlay's membership oracle).
        self._base = LinearEngine(layout)
        #: The built tree: nested (bit, zero_child, one_child) tuples with
        #: list leaves of (key, rule); ``None`` = no tree yet.
        self._root = None
        #: rule_ids the current tree covers.
        self._tree_ids: frozenset = frozenset()
        #: Rules added since the last build, in lookup order (key, rule).
        self._overlay: List[Tuple[_Key, Rule]] = []
        #: Tree entries removed since the last build.
        self._tombstones = 0
        if rules:
            for rule in rules:
                self.add(rule)

    # -- mutation ----------------------------------------------------------
    def add(self, rule: Rule) -> None:
        self._check_layout(rule)
        self._base.add(rule)
        if self._root is not None:
            key = self._base._key(rule)
            index = 0
            for index, (existing_key, _) in enumerate(self._overlay):
                if existing_key > key:
                    break
            else:
                index = len(self._overlay)
            self._overlay.insert(index, (key, rule))

    def remove(self, rule: Rule) -> bool:
        removed = self._base.remove(rule)
        if removed and self._root is not None:
            if rule.rule_id in self._tree_ids:
                self._tombstones += 1
            else:
                self._overlay = [
                    entry for entry in self._overlay if entry[1] is not rule
                ]
        return removed

    def clear(self) -> None:
        self._base.clear()
        self._root = None
        self._tree_ids = frozenset()
        self._overlay = []
        self._tombstones = 0

    # -- the tree ----------------------------------------------------------
    def _stale(self) -> bool:
        slack = max(32, len(self._base) // 4)
        return len(self._overlay) + self._tombstones > slack

    def _ensure_tree(self) -> None:
        if self._root is None or self._stale():
            self.build()

    def build(self) -> None:
        """(Re)build the decision tree over the current rule set."""
        # Imported lazily: core.partition depends on flowspace, so a
        # module-level import here would be circular.
        import numpy as np

        from repro.core.partition import (
            _Node,
            _choose_cut,
            _rule_bit_matrix,
            _split,
        )
        from repro.flowspace.ternary import Ternary

        ordered = self._base.ordered_view()
        entries = [(self._base._key(rule), rule) for rule in ordered]
        rules = [rule for _, rule in entries]
        matrix = _rule_bit_matrix(rules, self.layout.width)
        root = _Node(Ternary.wildcard(self.layout.width), np.arange(len(rules)), 0)

        def grow(node, budget):
            if (
                len(node.indices) <= self.leaf_size
                or node.depth >= self.max_depth
            ):
                return [entries[i] for i in node.indices]
            cut = _choose_cut(node, matrix, "split-aware")
            if cut is None:
                return [entries[i] for i in node.indices]
            left, right = _split(node, matrix, cut)
            n_left, n_right = len(left.indices), len(right.indices)
            duplicated = n_left + n_right - len(node.indices)
            if duplicated >= len(node.indices) or duplicated > budget:
                # Every rule straddles the cut, or this subtree's share of
                # the duplication budget is spent: stop and scan linearly.
                return [entries[i] for i in node.indices]
            # Split the remaining budget proportionally to child size so
            # no subtree is starved into a giant leaf.
            remaining = budget - duplicated
            left_budget = remaining * n_left // (n_left + n_right)
            return (
                cut,
                grow(left, left_budget),
                grow(right, remaining - left_budget),
            )

        self._root = grow(root, max(self.space_factor * len(rules), 256))
        self._tree_ids = frozenset(rule.rule_id for rule in rules)
        self._overlay = []
        self._tombstones = 0

    # -- lookup ------------------------------------------------------------
    def lookup_bits(self, header_bits: int) -> Optional[Rule]:
        self._ensure_tree()
        return self._lookup_built(header_bits)

    def _lookup_built(self, header_bits: int) -> Optional[Rule]:
        alive = self._base._by_id
        node = self._root
        while type(node) is tuple:
            bit, zero_child, one_child = node
            node = one_child if (header_bits >> bit) & 1 else zero_child
        best: Optional[Tuple[_Key, Rule]] = None
        for key, rule in node:
            ternary = rule.match.ternary
            if (header_bits & ternary.mask) == ternary.value and (
                alive.get(rule.rule_id) is rule
            ):
                best = (key, rule)
                break  # leaves are key-sorted: first live match wins
        for key, rule in self._overlay:
            if best is not None and best[0] < key:
                break  # overlay is key-sorted too
            ternary = rule.match.ternary
            if (header_bits & ternary.mask) == ternary.value:
                best = (key, rule)
                break
        return best[1] if best is not None else None

    def batch_lookup(self, header_bits_seq: Iterable[int]) -> List[Optional[Rule]]:
        self._ensure_tree()
        lookup = self._lookup_built
        return [lookup(bits) for bits in header_bits_seq]

    def win_fragment(self, target: Rule, packet_bits: int) -> Optional[Ternary]:
        return self._base.win_fragment(target, packet_bits)

    # -- views -------------------------------------------------------------
    def rules(self) -> List[Rule]:
        return self._base.rules()

    def __len__(self) -> int:
        return len(self._base)

    def __contains__(self, rule: Rule) -> bool:
        return rule in self._base


# ---------------------------------------------------------------------------
# Engine selection
# ---------------------------------------------------------------------------

_ENGINES: Dict[str, type] = {
    "linear": LinearEngine,
    "dtree": DecisionTreeEngine,
}

#: Valid values for the CLI's ``--engine`` flag.
ENGINE_CHOICES = tuple(_ENGINES)

_default_engine = "linear"

#: Anything :func:`create_engine` accepts: a registry name, ``None`` (use
#: the process default), an engine instance, or an engine factory/class.
EngineSpec = Union[None, str, MatchEngine, Callable[[HeaderLayout], MatchEngine]]


def set_default_engine(name: str) -> None:
    """Set the process-wide default engine (the CLI's ``--engine`` flag)."""
    global _default_engine
    if name not in _ENGINES:
        raise ValueError(f"unknown engine {name!r}; choose from {ENGINE_CHOICES}")
    _default_engine = name


def get_default_engine() -> str:
    """The current process-wide default engine name."""
    return _default_engine


def create_engine(spec: EngineSpec, layout: HeaderLayout) -> MatchEngine:
    """Resolve an engine spec to a fresh (or given) engine instance.

    ``None`` resolves to the process default, a string through the
    registry, a :class:`MatchEngine` instance is used as-is (caller keeps
    ownership), and any other callable is invoked with ``layout``.
    """
    if spec is None:
        spec = _default_engine
    if isinstance(spec, str):
        try:
            factory = _ENGINES[spec]
        except KeyError:
            raise ValueError(
                f"unknown engine {spec!r}; choose from {ENGINE_CHOICES}"
            ) from None
        return factory(layout)
    if isinstance(spec, MatchEngine):
        return spec
    return spec(layout)
