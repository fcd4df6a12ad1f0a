"""Trace-driven cache simulators for the miss-rate experiment (E7).

The paper's caching argument: reactive **microflow** rules (one exact
match per flow, the Ethane way) need an entry per active flow, while
DIFANE's **independent wildcard fragments** cover many flows per entry —
so for a fixed TCAM budget the wildcard cache misses far less.  These two
simulators replay the same packet-header sequence through a cache of
each kind, counting hits and misses, with no event-driven machinery so
large sweeps stay fast.

A sweep replays one trace through many cache sizes and policies, and
what a header resolves to — its winning rule and its win-region
fragment — depends on the policy and the header alone.  So the trace is
a value, :class:`ReplayTrace`, which resolves every distinct header once,
on the first replay that reads it, into small-int keys; each replay is
then a pass over ints.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.flowspace.fields import HeaderLayout
from repro.flowspace.rule import Rule
from repro.flowspace.table import RuleTable
from repro.flowspace.ternary import Ternary
from repro.core.cachegen import win_fragment

__all__ = [
    "CacheSimResult",
    "ReplayTrace",
    "simulate_microflow_cache",
    "simulate_wildcard_cache",
]

#: ``(flow_keys, fragment_keys, bonuses)`` of a resolved trace.
_Resolved = Tuple[Tuple[int, ...], Tuple[int, ...], List[float]]


@dataclass
class CacheSimResult:
    """Outcome of one cache replay."""

    cache_size: int
    packets: int
    hits: int
    misses: int
    installs: int
    evictions: int
    unmatched: int

    @property
    def miss_rate(self) -> float:
        """Fraction of matched packets that missed the cache."""
        matched = self.packets - self.unmatched
        return self.misses / matched if matched else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of matched packets served by the cache."""
        matched = self.packets - self.unmatched
        return self.hits / matched if matched else 0.0


class ReplayTrace:
    """A header sequence under a fixed policy, resolved once for every replay.

    Construction only snapshots ``policy`` and ``header_sequence`` as
    tuples.  The first replay that reads the trace builds the policy's
    :class:`RuleTable` and resolves every distinct header in one pass:

    * a flow key per packet — the index of its distinct header, or ``-1``
      when no rule matches it (the microflow cache's entries);
    * a fragment key per packet — the index of the win-region fragment
      holding it, or ``-1`` when unmatched (the wildcard cache's
      entries) — and the COST coverage bonus of each fragment.

    Win fragments are a canonical partition (DESIGN.md "Miss path & trace
    replay"): the fragment holding a header does not depend on which of
    its headers asked, and two fragments are equal or disjoint.  So a
    header's fragment is looked for among the fragments already generated
    for the same winner before :func:`win_fragment` is asked.  That is
    the sequence clip over the ordered policy, not the engine's mask
    index, on purpose: the ClassBench ACL E7 replays has 855 masks in
    1000 rules, where a probe per mask costs more than the scan.
    """

    def __init__(
        self,
        policy: Sequence[Rule],
        layout: HeaderLayout,
        header_sequence: Iterable[int],
    ):
        self.policy: Tuple[Rule, ...] = tuple(policy)
        self.layout = layout
        self.headers: Tuple[int, ...] = tuple(header_sequence)
        self._resolved: Optional[_Resolved] = None

    def _keys(self) -> _Resolved:
        """``(flow_keys, fragment_keys, bonuses)``, resolved on first use."""
        if self._resolved is None:
            self._resolved = self._resolve()
        return self._resolved

    def _resolve(self) -> _Resolved:
        table = RuleTable(self.layout, self.policy)
        ordered_rules = table.rules
        #: header -> (flow key, fragment key)
        keys: Dict[int, Tuple[int, int]] = {}
        #: winner -> [(fragment, fragment key)] generated for it so far
        known: Dict[Rule, List[Tuple[Ternary, int]]] = {}
        bonuses: List[float] = []
        for bits in self.headers:
            if bits in keys:
                continue
            winner = table.lookup_bits(bits)
            if winner is None:
                keys[bits] = (-1, -1)
                continue
            siblings = known.setdefault(winner, [])
            for fragment, key in siblings:
                if (bits & fragment.mask) == fragment.value:
                    break
            else:
                fragment = win_fragment(ordered_rules, winner, bits)
                key = len(bonuses)
                siblings.append((fragment, key))
                bonus = 1.0
                if fragment.width:
                    bonus += fragment.wildcard_bits() / fragment.width
                bonuses.append(bonus)
            keys[bits] = (len(keys), key)
        pairs = [keys[bits] for bits in self.headers]
        flow_keys = tuple(flow for flow, _ in pairs)
        fragment_keys = tuple(fragment for _, fragment in pairs)
        return flow_keys, fragment_keys, bonuses


def _replay_lru(keys: Sequence[int], cache_size: int) -> CacheSimResult:
    """LRU replay of per-packet entry keys (``-1`` = unmatched)."""
    cache: "OrderedDict[int, bool]" = OrderedDict()
    hits = misses = installs = evictions = unmatched = 0
    for key in keys:
        if key in cache:
            hits += 1
            cache.move_to_end(key)
            continue
        if key < 0:
            unmatched += 1
            continue
        misses += 1
        if cache_size <= 0:
            continue
        cache[key] = True
        installs += 1
        if len(cache) > cache_size:
            cache.popitem(last=False)
            evictions += 1
    return CacheSimResult(cache_size, len(keys), hits, misses, installs, evictions, unmatched)


def _replay_cost(
    keys: Sequence[int], bonuses: Sequence[float], cache_size: int
) -> CacheSimResult:
    """COST replay: evict the lowest ``clock + freq × bonus``, LRU on ties.

    ``cache`` maps each cached key to its recency stamp, bumped on every
    insert and hit.  The victim comes from a lazy min-heap of ``(score,
    stamp, key)``: an entry is live while its key is cached with that
    stamp, so the first live entry popped is the least-recently-used of
    the lowest-scored — exactly ``min`` over an LRU-ordered cache.  When
    stale entries make the heap outgrow ``2 × len(cache) + 16`` it is
    rebuilt from the live ones.
    """
    cache: Dict[int, int] = {}
    freq = [0] * len(bonuses)
    score = [0.0] * len(bonuses)
    heap: List[Tuple[float, int, int]] = []
    clock = 0.0
    stamp = 0
    hits = misses = installs = evictions = unmatched = 0
    for key in keys:
        if key in cache:
            hits += 1
            freq[key] += 1
        elif key < 0:
            unmatched += 1
            continue
        else:
            misses += 1
            if cache_size <= 0:
                continue
            installs += 1
            freq[key] = 1
        stamp += 1
        cache[key] = stamp
        score[key] = value = clock + freq[key] * bonuses[key]
        heapq.heappush(heap, (value, stamp, key))
        if len(cache) > cache_size:
            while True:
                clock, victim_stamp, victim = heapq.heappop(heap)
                if cache.get(victim) == victim_stamp:
                    break
            del cache[victim]
            evictions += 1
        if len(heap) > 2 * len(cache) + 16:
            heap = [(score[live], live_stamp, live) for live, live_stamp in cache.items()]
            heapq.heapify(heap)
    return CacheSimResult(cache_size, len(keys), hits, misses, installs, evictions, unmatched)


def simulate_microflow_cache(trace: ReplayTrace, cache_size: int) -> CacheSimResult:
    """Replay ``trace`` through an LRU exact-match cache.

    A miss consults the policy (the controller / authority detour) and
    installs one microflow entry for that exact header.
    """
    flow_keys, _, _ = trace._keys()
    return _replay_lru(flow_keys, cache_size)


def simulate_wildcard_cache(
    trace: ReplayTrace, cache_size: int, eviction: str = "lru"
) -> CacheSimResult:
    """Replay ``trace`` through a cache of DIFANE fragments.

    A miss consults the policy, computes the winning rule's independent
    win-region fragment containing the packet (the same per-miss
    computation the authority switch performs), and installs that single
    wildcard entry; a packet hits when its fragment is cached.

    ``eviction`` selects the replacement policy: ``"lru"`` (the paper) or
    ``"cost"``, a GreedyDual-Size-Frequency-style score — ``clock + freq ×
    bonus``, frequency times a coverage bonus on top of an inflation
    clock, ties going to the least-recently-used entry.  That is *not*
    :class:`repro.switch.cache.EvictionPolicy` ``COST`` (EWMA hit rate ×
    re-fetch penalty × coverage bonus), so E7's and E8C's "cost" rows are
    different policies: a trace replay has no clock for an EWMA and every
    re-fetch costs the same, so coverage is the only benefit proxy left.
    """
    if eviction not in ("lru", "cost"):
        raise ValueError(f"unknown eviction policy {eviction!r}")
    _, fragment_keys, bonuses = trace._keys()
    if eviction == "cost":
        return _replay_cost(fragment_keys, bonuses, cache_size)
    return _replay_lru(fragment_keys, cache_size)
