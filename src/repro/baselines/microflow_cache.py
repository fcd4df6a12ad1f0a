"""Trace-driven cache simulators for the miss-rate experiment (E7).

The paper's caching argument: reactive **microflow** rules (one exact
match per flow, the Ethane way) need an entry per active flow, while
DIFANE's **independent wildcard fragments** cover many flows per entry —
so for a fixed TCAM budget the wildcard cache misses far less.  These two
simulators replay the same packet-header sequence through an LRU cache of
each kind, counting hits and misses, with no event-driven machinery so
large sweeps stay fast.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.flowspace.fields import HeaderLayout
from repro.flowspace.rule import Rule
from repro.flowspace.table import RuleTable
from repro.flowspace.ternary import Ternary
from repro.core.cachegen import win_fragment

__all__ = ["CacheSimResult", "simulate_microflow_cache", "simulate_wildcard_cache"]


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


def simulate_microflow_cache(
    policy: Sequence[Rule],
    layout: HeaderLayout,
    header_sequence: Iterable[int],
    cache_size: int,
    engine=None,
) -> CacheSimResult:
    """Replay ``header_sequence`` through an LRU exact-match cache.

    A miss consults the policy (the controller / authority detour) and
    installs one microflow entry for that exact header.  ``engine``
    selects the policy-lookup backend (see :mod:`repro.flowspace.engine`).
    """
    table = RuleTable(layout, policy, engine=engine)
    # The policy is fixed for the replay, so a header's winner is looked
    # up once; the memo lives and dies with this call.
    winners: Dict[int, Optional[Rule]] = {}
    cache: "OrderedDict[int, bool]" = OrderedDict()
    hits = misses = installs = evictions = unmatched = packets = 0
    for bits in header_sequence:
        packets += 1
        if bits in cache:
            hits += 1
            cache.move_to_end(bits)
            continue
        if bits not in winners:
            winners[bits] = table.lookup_bits(bits)
        if winners[bits] is None:
            unmatched += 1
            continue
        misses += 1
        if cache_size > 0:
            cache[bits] = True
            installs += 1
            if len(cache) > cache_size:
                cache.popitem(last=False)
                evictions += 1
    return CacheSimResult(cache_size, packets, hits, misses, installs, evictions, unmatched)


def simulate_wildcard_cache(
    policy: Sequence[Rule],
    layout: HeaderLayout,
    header_sequence: Iterable[int],
    cache_size: int,
    engine=None,
    eviction: str = "lru",
) -> CacheSimResult:
    """Replay ``header_sequence`` through a cache of DIFANE fragments.

    A miss consults the policy, computes the winning rule's independent
    win-region fragment containing the packet (the same per-miss
    computation the authority switch performs), and installs that single
    wildcard entry.

    Within one replay the policy is fixed, so a header's winner and its
    fragment are pure functions of the header.  Fragments are moreover a
    *partition*: if ``q`` lies in the fragment clipped for ``p``, every
    intermediate region of ``p``'s walk contains ``q`` and the pieces at
    each step are disjoint, so ``q``'s walk picks the same pieces and ends
    at the same fragment.  Hence each distinct header is resolved once — a
    first-seen header scans the fragments generated so far (at most one
    can hold it) before asking :func:`win_fragment` — and a cache hit is
    one ``fragment in cache`` probe instead of a scan.  Both memos live
    and die with this call.

    ``eviction`` selects the replacement policy: ``"lru"`` (the paper) or
    ``"cost"``, a GreedyDual-Size-Frequency-style score — ``clock + freq ×
    bonus``, frequency times a coverage bonus on top of an inflation
    clock, with the victim found by a scan of the cache.  That is *not*
    :class:`repro.switch.cache.EvictionPolicy` ``COST`` (EWMA hit rate ×
    re-fetch penalty × coverage bonus): a trace replay has no clock for
    an EWMA and every re-fetch costs the same, so coverage is the only
    benefit proxy left.

    The fragment comes from the sequence :func:`win_fragment` over the
    ordered policy, not the engine's mask index, on purpose: the
    ClassBench ACL this replays has 855 masks in 1000 rules, where a
    probe per mask costs more than the scan.
    """
    if eviction not in ("lru", "cost"):
        raise ValueError(f"unknown eviction policy {eviction!r}")
    table = RuleTable(layout, policy, engine=engine)
    ordered_rules = table.rules
    cost = eviction == "cost"
    winners: Dict[int, Optional[Rule]] = {}
    #: Every fragment generated so far, in first-generated order.
    fragments: List[Ternary] = []
    fragment_of: Dict[int, Ternary] = {}
    cache: "OrderedDict[Ternary, bool]" = OrderedDict()
    freq: Dict[Ternary, int] = {}
    score: Dict[Ternary, float] = {}
    clock = 0.0

    def rescore(fragment: Ternary) -> None:
        bonus = 1.0
        if fragment.width:
            bonus += fragment.wildcard_bits() / fragment.width
        score[fragment] = clock + freq[fragment] * bonus

    hits = misses = installs = evictions = unmatched = packets = 0
    for bits in header_sequence:
        packets += 1
        fragment = fragment_of.get(bits)
        if fragment is None and bits not in winners:
            # First sight of this header: a fragment generated for an
            # earlier one may already hold it.
            for known in fragments:
                if (bits & known.mask) == known.value:
                    fragment = fragment_of[bits] = known
                    break
        if fragment in cache:
            hits += 1
            cache.move_to_end(fragment)
            if cost:
                freq[fragment] += 1
                rescore(fragment)
            continue
        if bits not in winners:
            winners[bits] = table.lookup_bits(bits)
        winner = winners[bits]
        if winner is None:
            unmatched += 1
            continue
        misses += 1
        if cache_size <= 0:
            continue
        if fragment is None:
            fragment = win_fragment(ordered_rules, winner, bits)
            if fragment is None:
                continue
            fragments.append(fragment)
            fragment_of[bits] = fragment
        cache[fragment] = True
        installs += 1
        if cost:
            freq[fragment] = 1
            rescore(fragment)
        if len(cache) > cache_size:
            if cost:
                victim = min(cache, key=score.get)
                clock = score[victim]
                del cache[victim], freq[victim], score[victim]
            else:
                cache.popitem(last=False)
            evictions += 1
    return CacheSimResult(cache_size, packets, hits, misses, installs, evictions, unmatched)
